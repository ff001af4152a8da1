// Splits each recorded request's latency into the stages between the
// boundaries the benchmark can see from outside the program: the generator's
// own send and receive, and the service's calls into net on the client leg
// and the backend leg (from the TracedTransport's StreamTaps).
//
//   send_lag     scheduled arrival      -> generator starts the send carrying it
//   ingest_wait  generator send starts  -> service's client read returns it
//   dispatch     client read returns    -> service starts the backend write
//   backend      backend write starts   -> service's backend read returns the reply
//   reply        backend read returns   -> service starts the client write
//   hit          client read returns    -> client write starts (no backend leg)
//   egress_wait  client write starts    -> generator's read returns the reply
//
// Reads are stamped when they return and writes when they start, so every
// stage is non-negative by causality, and the stages of one request sum
// exactly to its latency. The stages partition the request's time, so each
// stage's self time is its whole duration.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <vector>

#include "generator.h"
#include "traced_transport.h"

namespace perfbench {

struct ConnEvents {
  std::vector<MsgEvent> rx;  // messages the service read
  std::vector<MsgEvent> tx;  // messages the service wrote
};

struct StageInput {
  Framing framing = Framing::kMemcached;
  std::vector<ReqRecord> records;
  std::vector<ConnEvents> client;   // by accept order
  std::vector<ConnEvents> backend;  // by dial order
};

struct StageSample {
  uint64_t id = 0;
  bool hit = false;  // answered without a backend leg
  int64_t send_lag = 0, ingest_wait = 0, dispatch = 0, backend = 0, reply = 0, hit_ns = 0,
          egress_wait = 0;
  int64_t latency = 0;  // done - sched
  int64_t Sum() const {
    return send_lag + ingest_wait + dispatch + backend + reply + hit_ns + egress_wait;
  }
};

// One sample per record whose every boundary was seen; the rest are counted
// in `unattributed`.
std::vector<StageSample> AttributeStages(const StageInput& in, uint64_t* unattributed);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
