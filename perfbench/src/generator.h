// The benchmark's load generator: ONE thread driving at most a handful of
// plain non-blocking loopback sockets, pipelining requests on each, and
// checking every reply.
//
//   * open phase: Poisson arrivals at a fixed rate from a seeded schedule.
//     Each arrival is written when it is due, on its connection, whatever is
//     in flight there; latency runs from the SCHEDULED time, and how late
//     the generator got to each arrival is recorded separately.
//   * sat phase: closed loop, a fixed number of requests in flight on every
//     connection; replies are counted inside a measurement window.
//
// Memcached replies are matched to requests by `opaque` (the request id), so
// replies may arrive in any order; HTTP replies are matched in order per
// connection. SET values carry a per-key version: a GETK sent after a SET
// was acknowledged must return that version or a later one, or it counts as
// a stale read.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rng.h"

namespace perfbench {

enum class Proto { kMemcached, kHttp };

struct TrafficSpec {
  Proto proto = Proto::kMemcached;
  uint8_t read_opcode = 0;   // memcached read: GET (0x00) or GETK (0x0c)
  double set_fraction = 0;   // memcached share of SETs
  uint32_t keys = 1000;
  int connections = 4;
  std::vector<std::string> http_bodies;  // a reply body must equal one of these
};

// One request to send: a key and a memcached opcode (unused for HTTP).
struct Op {
  uint32_t key = 0;
  uint8_t op = 0;
};

// Draws the next request for connection `conn`. SETs of a key always use
// connection key % connections, so the writes of one key stay ordered end to
// end (one client connection holds one pooled wire per backend).
Op DrawOp(const TrafficSpec& spec, SplitMix64& rng, int conn);

// One arrival of an open phase, `t_ns` after the phase starts.
struct Arrival {
  uint64_t t_ns = 0;
  Op op;
  int conn = 0;
};

// The whole open-phase schedule, drawn up front from `seed`: Poisson
// arrivals at `rps`, requests from DrawOp, connections round-robin. Nothing
// in it depends on how the service behaves.
std::vector<Arrival> OpenSchedule(const TrafficSpec& spec, double rps, uint64_t duration_ns,
                                  uint64_t seed);

// How every request of a phase ended. sent == ok + errors() + abandoned.
struct Verdicts {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t abandoned = 0;      // no reply before the drain deadline
  uint64_t bad_status = 0;
  uint64_t bad_value = 0;      // wrong key echo, value or body bytes
  uint64_t stale_reads = 0;    // GETK older than an acknowledged SET
  uint64_t unmatched = 0;      // reply that matches no request in flight
  uint64_t malformed = 0;      // reply bytes that do not frame
  uint64_t late = 0;           // reply to an already abandoned request (not counted again)
  uint64_t errors() const { return bad_status + bad_value + stale_reads + unmatched + malformed; }
  bool conserved() const { return sent == ok + bad_status + bad_value + stale_reads + abandoned; }
  Verdicts& operator+=(const Verdicts& o);
};

// One verified request of a recorded phase, for the stage attribution.
struct ReqRecord {
  uint64_t id = 0;
  uint32_t conn = 0;
  uint64_t sched_ns = 0;
  uint64_t sent_ns = 0;   // send() that carried its last byte started
  uint64_t done_ns = 0;   // recv() that carried its reply's last byte returned
};

struct PhaseResult {
  Verdicts v;
  double seconds = 0;               // measurement window
  uint64_t completed_in_window = 0; // ok replies inside the window (sat)
  std::vector<uint64_t> latency_ns;   // open: scheduled arrival -> verified reply
  std::vector<uint64_t> lateness_ns;  // open: scheduled arrival -> written
  std::vector<ReqRecord> records;     // when recording was asked for
  uint64_t sets_sent = 0;
};

class Generator {
 public:
  Generator(TrafficSpec spec, uint64_t seed);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Opens the connections (blocking connects on loopback).
  bool Connect(uint16_t port);
  void Close();

  // Reads every key once (GETK / GET / HTTP GET), pipelined, and waits for
  // every reply: the cache warm-up and the first verified reply of setup.
  PhaseResult Warm(uint32_t keys, uint64_t timeout_ns);

  PhaseResult RunOpen(double rps, uint64_t duration_ns, uint64_t schedule_seed, bool record);
  PhaseResult RunSat(int depth, uint64_t warmup_ns, uint64_t duration_ns);

  // Reads until nothing is in flight or `grace_ns` passes; what is still in
  // flight then is abandoned.
  void Drain(PhaseResult* out, uint64_t grace_ns);

 private:
  struct Conn {
    int fd = -1;
    std::string tx;
    size_t tx_off = 0;
    uint64_t tx_total = 0;                                // stream offset sent so far
    uint64_t tx_queued = 0;                               // stream offset queued so far
    std::deque<std::pair<uint64_t, uint64_t>> unsent;     // (end offset, id)
    char* rx = nullptr;  // one of rx_buffers_
    size_t rx_begin = 0;
    size_t rx_end = 0;
    std::deque<uint64_t> fifo;                            // HTTP: ids in send order
    int in_flight = 0;
  };
  enum class Slot : uint8_t { kFree, kInFlight, kAbandoned };
  struct Flight {
    uint64_t id = 0;
    uint64_t sched_ns = 0;
    uint64_t sent_ns = 0;
    uint32_t key = 0;
    uint32_t version = 0;  // SET: version written; reads: oldest acceptable
    uint32_t conn = 0;
    uint8_t op = 0;
    Slot state = Slot::kFree;
  };
  // Queues one request on `conn`; false when the slot table is full.
  bool Issue(int conn, Op op, uint64_t sched_ns, PhaseResult* out);
  // One pass over every connection: flush, read, verify. True if anything moved.
  bool Pump(PhaseResult* out);
  void Flush(Conn& c);
  void Complete(Flight& f, bool ok, uint64_t now, PhaseResult* out);
  void VerifyMc(int conn, const char* data, size_t len, uint64_t now, PhaseResult* out,
                size_t* consumed);
  void VerifyHttp(int conn, const char* data, size_t len, uint64_t now, PhaseResult* out,
                  size_t* consumed);
  void Wait(uint64_t until_ns);
  int InFlight() const;

  TrafficSpec spec_;
  SplitMix64 rng_;
  std::vector<Conn> conns_;
  // Receive buffers, allocated once: set-up time must not include them.
  std::vector<std::unique_ptr<char[]>> rx_buffers_;
  std::vector<Flight> table_;
  uint64_t next_id_ = 1;
  std::vector<uint32_t> sent_version_;   // per key: newest version written
  std::vector<uint32_t> acked_version_;  // per key: newest version acknowledged
  // Phase state.
  uint64_t window_begin_ = 0;
  uint64_t window_end_ = UINT64_MAX;
  bool open_phase_ = false;
  bool recording_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
