// A pass-through Transport decorator: every call the service makes into the
// net layer goes through it unchanged, and is counted and timed on the way.
//
// Accepted connections are the `client` leg, dialed ones the `backend` leg.
// When a TraceSink is attached, each connection also gets two StreamTaps that
// frame the bytes crossing it (memcached records or HTTP messages) and record
// when each message finished crossing, plus a capped byte capture of one
// connection per leg and direction for the replay timings. Without a sink the
// decorator only learns the listening port and hands the inner objects out
// untouched, so the untraced run measures the bare kernel transport.
#ifndef PERFBENCH_TRACED_TRANSPORT_H_
#define PERFBENCH_TRACED_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"

namespace perfbench {

enum class Framing { kMemcached, kHttp };
enum Leg : int { kClientLeg = 0, kBackendLeg = 1 };

// One message finishing its crossing of a connection boundary.
struct MsgEvent {
  uint64_t t_ns = 0;
  uint64_t id = 0;   // memcached: opaque; HTTP request: /obj/<id>; else 0
  uint64_t seq = 0;  // position of the message in this stream
};

// Online framer over one direction of one connection.
class StreamTap {
 public:
  explicit StreamTap(Framing framing) : framing_(framing) {}
  // Feeds the next `len` bytes of the stream, all delivered at `t_ns`.
  void Feed(const char* data, size_t len, uint64_t t_ns, bool record);
  const std::vector<MsgEvent>& events() const { return events_; }

  // Bytes kept for replay; capture stops at `capture_cap_` bytes.
  void EnableCapture(size_t cap) { capture_cap_ = cap; }
  const std::string& capture() const { return capture_; }

 private:
  void Complete(uint64_t t_ns, bool record);

  Framing framing_;
  std::string header_;      // bytes of the current message's header so far
  uint64_t skip_ = 0;       // body bytes still to pass
  bool in_body_ = false;
  uint64_t id_ = 0;
  uint64_t seq_ = 0;
  std::vector<MsgEvent> events_;
  size_t capture_cap_ = 0;
  std::string capture_;
};

struct ConnTrace {
  ConnTrace(Leg l, uint32_t i, Framing f) : leg(l), index(i), rx(f), tx(f) {}
  Leg leg;
  uint32_t index;  // accept order (client) or dial order (backend)
  std::mutex rx_mu;
  StreamTap rx;
  std::mutex tx_mu;
  StreamTap tx;
};

// Per-leg call counts and busy time.
struct LegCounters {
  std::atomic<uint64_t> readv_calls{0};
  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> reads_empty{0};  // reads that returned 0 bytes
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> writev_calls{0};
  std::atomic<uint64_t> write_calls{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> ready_probes{0};
  std::atomic<uint64_t> busy_ns{0};
};

struct LegSnapshot {
  uint64_t readv_calls = 0, read_calls = 0, reads_empty = 0, bytes_read = 0;
  uint64_t writev_calls = 0, write_calls = 0, bytes_written = 0;
  uint64_t ready_probes = 0, busy_ns = 0;
  LegSnapshot operator-(const LegSnapshot& o) const;
  uint64_t reads() const { return readv_calls + read_calls; }
  uint64_t writes() const { return writev_calls + write_calls; }
};

class TraceSink {
 public:
  explicit TraceSink(Framing framing) : framing_(framing) {}

  std::shared_ptr<ConnTrace> NewConn(Leg leg);
  LegCounters& counters(Leg leg) { return counters_[leg]; }
  LegSnapshot Snapshot(Leg leg) const;

  // Message events are recorded only while this is on.
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  // Every connection seen so far (read after the service is quiesced).
  std::vector<std::shared_ptr<ConnTrace>> conns() const;

  static constexpr size_t kCaptureBytes = 1 << 20;

 private:
  Framing framing_;
  LegCounters counters_[2];
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ConnTrace>> conns_;
  uint32_t next_index_[2] = {0, 0};
};

class TracedTransport : public flick::Transport {
 public:
  // `sink` may be null: then only the bound port is recorded.
  TracedTransport(flick::Transport* inner, TraceSink* sink) : inner_(inner), sink_(sink) {}

  flick::Result<std::unique_ptr<flick::Listener>> Listen(uint16_t port) override;
  flick::Result<std::unique_ptr<flick::Listener>> ListenShared(uint16_t port) override;
  flick::Result<std::unique_ptr<flick::Connection>> Connect(uint16_t port) override;
  const char* name() const override { return inner_->name(); }

  // The port of the most recent successful Listen.
  uint16_t last_listen_port() const { return last_port_.load(); }

 private:
  flick::Result<std::unique_ptr<flick::Listener>> Wrap(
      flick::Result<std::unique_ptr<flick::Listener>> listener);

  flick::Transport* inner_;
  TraceSink* sink_;
  std::atomic<uint16_t> last_port_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_TRANSPORT_H_
