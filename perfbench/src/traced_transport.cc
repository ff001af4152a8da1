#include "traced_transport.h"

#include <cstring>

#include "rng.h"
#include "wire.h"

namespace perfbench {
namespace {

using flick::Connection;
using flick::IoSlice;
using flick::Listener;
using flick::MutIoSlice;
using flick::Result;

uint64_t Load(const std::atomic<uint64_t>& a) { return a.load(std::memory_order_relaxed); }

void Add(std::atomic<uint64_t>& a, uint64_t v) { a.fetch_add(v, std::memory_order_relaxed); }

class TracedConnection : public Connection {
 public:
  TracedConnection(std::unique_ptr<Connection> inner, std::shared_ptr<ConnTrace> trace,
                   TraceSink* sink)
      : inner_(std::move(inner)), trace_(std::move(trace)), sink_(sink),
        counters_(sink->counters(trace_->leg)) {}

  Result<size_t> Read(void* buf, size_t len) override {
    const uint64_t t0 = NowNs();
    Result<size_t> got = inner_->Read(buf, len);
    const uint64_t t1 = NowNs();
    Add(counters_.read_calls, 1);
    OnRead(got, t0, t1);
    if (got.ok() && *got > 0) {
      TapRx(static_cast<const char*>(buf), *got, t1);
    }
    return got;
  }

  Result<size_t> Readv(const MutIoSlice* slices, size_t count) override {
    const uint64_t t0 = NowNs();
    Result<size_t> got = inner_->Readv(slices, count);
    const uint64_t t1 = NowNs();
    Add(counters_.readv_calls, 1);
    OnRead(got, t0, t1);
    if (got.ok() && *got > 0) {
      std::lock_guard<std::mutex> lock(trace_->rx_mu);
      size_t left = *got;
      for (size_t i = 0; i < count && left > 0; ++i) {
        const size_t n = slices[i].len < left ? slices[i].len : left;
        trace_->rx.Feed(reinterpret_cast<const char*>(slices[i].data), n, t1, sink_->recording());
        left -= n;
      }
    }
    return got;
  }

  // Writes are stamped when the call starts and reads when it returns: a
  // message cannot be read before it was written, so stages stay causal.
  Result<size_t> Write(const void* buf, size_t len) override {
    const uint64_t t0 = NowNs();
    Result<size_t> wrote = inner_->Write(buf, len);
    const uint64_t t1 = NowNs();
    Add(counters_.write_calls, 1);
    Add(counters_.busy_ns, t1 - t0);
    if (wrote.ok() && *wrote > 0) {
      Add(counters_.bytes_written, *wrote);
      std::lock_guard<std::mutex> lock(trace_->tx_mu);
      trace_->tx.Feed(static_cast<const char*>(buf), *wrote, t0, sink_->recording());
    }
    return wrote;
  }

  Result<size_t> Writev(const IoSlice* slices, size_t count) override {
    const uint64_t t0 = NowNs();
    Result<size_t> wrote = inner_->Writev(slices, count);
    const uint64_t t1 = NowNs();
    Add(counters_.writev_calls, 1);
    Add(counters_.busy_ns, t1 - t0);
    if (wrote.ok() && *wrote > 0) {
      Add(counters_.bytes_written, *wrote);
      std::lock_guard<std::mutex> lock(trace_->tx_mu);
      size_t left = *wrote;
      for (size_t i = 0; i < count && left > 0; ++i) {
        const size_t n = slices[i].len < left ? slices[i].len : left;
        trace_->tx.Feed(static_cast<const char*>(slices[i].data), n, t0, sink_->recording());
        left -= n;
      }
    }
    return wrote;
  }

  void Close() override { inner_->Close(); }
  bool IsOpen() const override { return inner_->IsOpen(); }

  bool ReadReady() const override {
    const uint64_t t0 = NowNs();
    const bool ready = inner_->ReadReady();
    Add(counters_.ready_probes, 1);
    Add(counters_.busy_ns, NowNs() - t0);
    return ready;
  }

  bool SetReadReadyHook(std::function<void()> hook) override {
    return inner_->SetReadReadyHook(std::move(hook));
  }

  uint64_t id() const override { return inner_->id(); }

 private:
  void OnRead(const Result<size_t>& got, uint64_t t0, uint64_t t1) {
    Add(counters_.busy_ns, t1 - t0);
    if (got.ok()) {
      if (*got == 0) {
        Add(counters_.reads_empty, 1);
      }
      Add(counters_.bytes_read, *got);
    }
  }

  void TapRx(const char* data, size_t n, uint64_t t) {
    std::lock_guard<std::mutex> lock(trace_->rx_mu);
    trace_->rx.Feed(data, n, t, sink_->recording());
  }

  std::unique_ptr<Connection> inner_;
  std::shared_ptr<ConnTrace> trace_;
  TraceSink* sink_;
  LegCounters& counters_;
};

class TracedListener : public Listener {
 public:
  TracedListener(std::unique_ptr<Listener> inner, TraceSink* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::unique_ptr<Connection> Accept() override {
    std::unique_ptr<Connection> conn = inner_->Accept();
    if (conn == nullptr) {
      return nullptr;
    }
    return std::make_unique<TracedConnection>(std::move(conn), sink_->NewConn(kClientLeg), sink_);
  }
  uint16_t port() const override { return inner_->port(); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Listener> inner_;
  TraceSink* sink_;
};

}  // namespace

void StreamTap::Complete(uint64_t t_ns, bool record) {
  if (record) {
    events_.push_back(MsgEvent{t_ns, id_, seq_});
  }
  ++seq_;
  header_.clear();
  in_body_ = false;
  skip_ = 0;
  id_ = 0;
}

void StreamTap::Feed(const char* data, size_t len, uint64_t t_ns, bool record) {
  if (capture_.size() < capture_cap_) {
    capture_.append(data, std::min(len, capture_cap_ - capture_.size()));
  }
  while (len > 0) {
    if (in_body_) {
      const size_t n = skip_ < len ? static_cast<size_t>(skip_) : len;
      skip_ -= n;
      data += n;
      len -= n;
      if (skip_ == 0) {
        Complete(t_ns, record);
      }
      continue;
    }
    if (framing_ == Framing::kMemcached) {
      const size_t n = std::min(len, kMcHeaderSize - header_.size());
      header_.append(data, n);
      data += n;
      len -= n;
      if (header_.size() < kMcHeaderSize) {
        return;
      }
      uint64_t body = 0;
      uint64_t opaque = 0;
      for (int i = 0; i < 4; ++i) {
        body = (body << 8) | static_cast<uint8_t>(header_[8 + i]);
        opaque = (opaque << 8) | static_cast<uint8_t>(header_[12 + i]);
      }
      id_ = opaque;
      skip_ = body;
    } else {
      // Look for the header terminator, which may straddle calls.
      const size_t before = header_.size();
      header_.append(data, len);
      const size_t from = before >= 3 ? before - 3 : 0;
      const size_t end = header_.find("\r\n\r\n", from);
      if (end == std::string::npos) {
        if (header_.size() > 64 * 1024) {
          header_.clear();  // not HTTP; stop framing rather than grow
        }
        return;
      }
      const size_t header_size = end + 4;
      const size_t used = header_size - before;
      data += used;
      len -= used;
      header_.resize(header_size);
      HttpFrame frame;
      if (FrameHttp(header_.data(), header_.size(), &frame) < 0) {
        header_.clear();
        continue;
      }
      id_ = frame.target_id;
      skip_ = frame.content_length;
    }
    if (skip_ == 0) {
      Complete(t_ns, record);
    } else {
      in_body_ = true;
    }
  }
}

LegSnapshot LegSnapshot::operator-(const LegSnapshot& o) const {
  LegSnapshot d;
  d.readv_calls = readv_calls - o.readv_calls;
  d.read_calls = read_calls - o.read_calls;
  d.reads_empty = reads_empty - o.reads_empty;
  d.bytes_read = bytes_read - o.bytes_read;
  d.writev_calls = writev_calls - o.writev_calls;
  d.write_calls = write_calls - o.write_calls;
  d.bytes_written = bytes_written - o.bytes_written;
  d.ready_probes = ready_probes - o.ready_probes;
  d.busy_ns = busy_ns - o.busy_ns;
  return d;
}

std::shared_ptr<ConnTrace> TraceSink::NewConn(Leg leg) {
  std::lock_guard<std::mutex> lock(mu_);
  auto trace = std::make_shared<ConnTrace>(leg, next_index_[leg]++, framing_);
  if (trace->index == 0) {
    // The first connection of each leg feeds the replay timings.
    trace->rx.EnableCapture(kCaptureBytes);
    trace->tx.EnableCapture(kCaptureBytes);
  }
  conns_.push_back(trace);
  return trace;
}

LegSnapshot TraceSink::Snapshot(Leg leg) const {
  const LegCounters& c = counters_[leg];
  LegSnapshot s;
  s.readv_calls = Load(c.readv_calls);
  s.read_calls = Load(c.read_calls);
  s.reads_empty = Load(c.reads_empty);
  s.bytes_read = Load(c.bytes_read);
  s.writev_calls = Load(c.writev_calls);
  s.write_calls = Load(c.write_calls);
  s.bytes_written = Load(c.bytes_written);
  s.ready_probes = Load(c.ready_probes);
  s.busy_ns = Load(c.busy_ns);
  return s;
}

std::vector<std::shared_ptr<ConnTrace>> TraceSink::conns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_;
}

Result<std::unique_ptr<Listener>> TracedTransport::Wrap(Result<std::unique_ptr<Listener>> listener) {
  if (!listener.ok()) {
    return listener;
  }
  last_port_.store((*listener)->port());
  if (sink_ == nullptr) {
    return listener;
  }
  return Result<std::unique_ptr<Listener>>(
      std::make_unique<TracedListener>(std::move(listener).value(), sink_));
}

Result<std::unique_ptr<Listener>> TracedTransport::Listen(uint16_t port) {
  return Wrap(inner_->Listen(port));
}

Result<std::unique_ptr<Listener>> TracedTransport::ListenShared(uint16_t port) {
  return Wrap(inner_->ListenShared(port));
}

Result<std::unique_ptr<Connection>> TracedTransport::Connect(uint16_t port) {
  Result<std::unique_ptr<Connection>> conn = inner_->Connect(port);
  if (!conn.ok() || sink_ == nullptr) {
    return conn;
  }
  return Result<std::unique_ptr<Connection>>(std::make_unique<TracedConnection>(
      std::move(conn).value(), sink_->NewConn(kBackendLeg), sink_));
}

}  // namespace perfbench
