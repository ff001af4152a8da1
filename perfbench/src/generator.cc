#include "generator.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "wire.h"

namespace perfbench {
namespace {

constexpr size_t kTableSize = size_t{1} << 16;  // > any window of ids in flight
constexpr size_t kRxBytes = size_t{1} << 20;  // > a sat window of HTTP replies

}  // namespace

Verdicts& Verdicts::operator+=(const Verdicts& o) {
  sent += o.sent;
  ok += o.ok;
  abandoned += o.abandoned;
  bad_status += o.bad_status;
  bad_value += o.bad_value;
  stale_reads += o.stale_reads;
  unmatched += o.unmatched;
  malformed += o.malformed;
  late += o.late;
  return *this;
}

Generator::Generator(TrafficSpec spec, uint64_t seed)
    : spec_(std::move(spec)),
      rng_(seed),
      table_(kTableSize),
      sent_version_(spec_.keys, 0),
      acked_version_(spec_.keys, 0) {
  for (int i = 0; i < spec_.connections; ++i) {
    rx_buffers_.push_back(std::make_unique_for_overwrite<char[]>(kRxBytes));
  }
}

Generator::~Generator() { Close(); }

bool Generator::Connect(uint16_t port) {
  for (int i = 0; i < spec_.connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    Conn c;
    c.fd = fd;
    c.rx = rx_buffers_[static_cast<size_t>(i)].get();
    conns_.push_back(std::move(c));
  }
  return true;
}

void Generator::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      ::close(c.fd);
    }
  }
  conns_.clear();
}

Op DrawOp(const TrafficSpec& spec, SplitMix64& rng, int conn) {
  Op op;
  if (spec.proto == Proto::kHttp) {
    return op;
  }
  const uint32_t n = static_cast<uint32_t>(spec.connections);
  if (spec.set_fraction > 0 && rng.Uniform() < spec.set_fraction) {
    op.op = kMcSet;
    op.key = static_cast<uint32_t>(rng.Next() % (spec.keys / n)) * n + static_cast<uint32_t>(conn);
  } else {
    op.op = spec.read_opcode;
    op.key = static_cast<uint32_t>(rng.Next() % spec.keys);
  }
  return op;
}

std::vector<Arrival> OpenSchedule(const TrafficSpec& spec, double rps, uint64_t duration_ns,
                                  uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(rps * static_cast<double>(duration_ns) / 1e9 * 1.1) + 16);
  const double mean_gap = 1e9 / rps;
  double t = 0;
  for (size_t i = 0;; ++i) {
    t += rng.Exponential(mean_gap);
    if (t >= static_cast<double>(duration_ns)) {
      break;
    }
    const int conn = static_cast<int>(i % static_cast<size_t>(spec.connections));
    schedule.push_back(Arrival{static_cast<uint64_t>(t), DrawOp(spec, rng, conn), conn});
  }
  return schedule;
}

bool Generator::Issue(int conn, Op op, uint64_t sched_ns, PhaseResult* out) {
  const uint64_t id = next_id_;
  Flight& f = table_[id & (kTableSize - 1)];
  if (f.state == Slot::kInFlight) {
    return false;
  }
  ++next_id_;
  Conn& c = conns_[static_cast<size_t>(conn)];
  f = Flight{};
  f.id = id;
  f.sched_ns = sched_ns;
  f.key = op.key;
  f.op = op.op;
  f.conn = static_cast<uint32_t>(conn);
  f.state = Slot::kInFlight;
  const size_t before = c.tx.size();
  if (spec_.proto == Proto::kMemcached) {
    std::string value;
    if (op.op == kMcSet) {
      f.version = ++sent_version_[op.key];
      value = ValueFor(op.key, f.version);
      ++out->sets_sent;
    } else {
      f.version = acked_version_[op.key];
    }
    AppendMcRequest(&c.tx, op.op, KeyName(op.key), value, static_cast<uint32_t>(id));
  } else {
    AppendHttpGet(&c.tx, id);
    c.fifo.push_back(id);
  }
  c.tx_queued += c.tx.size() - before;
  c.unsent.emplace_back(c.tx_queued, id);
  ++c.in_flight;
  ++out->v.sent;
  return true;
}

void Generator::Flush(Conn& c) {
  while (c.tx_off < c.tx.size()) {
    // Stamped before the call: the service may read the bytes before send()
    // returns.
    const uint64_t start = NowNs();
    const ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off, c.tx.size() - c.tx_off, MSG_NOSIGNAL);
    if (n <= 0) {
      break;  // would block (or the peer is gone: replies then never come)
    }
    c.tx_off += static_cast<size_t>(n);
    c.tx_total += static_cast<uint64_t>(n);
    while (!c.unsent.empty() && c.unsent.front().first <= c.tx_total) {
      Flight& f = table_[c.unsent.front().second & (kTableSize - 1)];
      if (f.id == c.unsent.front().second) {
        f.sent_ns = start;
      }
      c.unsent.pop_front();
    }
  }
  if (c.tx_off == c.tx.size()) {
    c.tx.clear();
    c.tx_off = 0;
  }
}

void Generator::Complete(Flight& f, bool ok, uint64_t now, PhaseResult* out) {
  Conn& c = conns_[f.conn];
  --c.in_flight;
  f.state = Slot::kFree;
  if (!ok) {
    return;
  }
  ++out->v.ok;
  if (open_phase_) {
    out->latency_ns.push_back(now - f.sched_ns);
  } else if (now >= window_begin_ && now < window_end_) {
    ++out->completed_in_window;
  }
  if (recording_) {
    out->records.push_back(ReqRecord{f.id, f.conn, f.sched_ns, f.sent_ns, now});
  }
}

void Generator::VerifyMc(int conn, const char* data, size_t len, uint64_t now,
                         PhaseResult* out, size_t* consumed) {
  size_t off = 0;
  McFrame frame;
  int r = 0;
  while ((r = FrameMc(data + off, len - off, &frame)) == 1) {
    off += frame.size;
    Flight& f = table_[frame.opaque & (kTableSize - 1)];
    if (f.state == Slot::kFree || static_cast<uint32_t>(f.id) != frame.opaque ||
        f.conn != static_cast<uint32_t>(conn)) {
      ++out->v.unmatched;
      continue;
    }
    if (f.state == Slot::kAbandoned) {
      ++out->v.late;
      f.state = Slot::kFree;
      continue;
    }
    if (frame.magic != 0x81 || frame.status != 0 || frame.opcode != f.op) {
      ++out->v.bad_status;
      Complete(f, false, now, out);
      continue;
    }
    bool ok = true;
    if (f.op == kMcSet) {
      ok = frame.value.empty() && frame.key.empty();
      if (ok) {
        acked_version_[f.key] = std::max(acked_version_[f.key], f.version);
      }
    } else {
      uint32_t version = 0;
      const bool key_ok = f.op == kMcGetK ? frame.key == KeyName(f.key) : frame.key.empty();
      ok = key_ok && ParseValue(frame.value, f.key, &version) &&
           version <= sent_version_[f.key];
      if (ok && version < f.version) {
        ++out->v.stale_reads;
        Complete(f, false, now, out);
        continue;
      }
    }
    if (!ok) {
      ++out->v.bad_value;
    }
    Complete(f, ok, now, out);
  }
  if (r < 0) {
    ++out->v.malformed;
    off = len;  // the stream is lost; its requests end abandoned
  }
  *consumed = off;
}

void Generator::VerifyHttp(int conn, const char* data, size_t len, uint64_t now,
                           PhaseResult* out, size_t* consumed) {
  Conn& c = conns_[static_cast<size_t>(conn)];
  size_t off = 0;
  HttpFrame frame;
  int r = 0;
  while ((r = FrameHttp(data + off, len - off, &frame)) == 1) {
    const char* body = data + off + frame.header_size;
    off += frame.size;
    if (c.fifo.empty()) {
      ++out->v.unmatched;
      continue;
    }
    const uint64_t id = c.fifo.front();
    c.fifo.pop_front();
    Flight& f = table_[id & (kTableSize - 1)];
    if (f.id != id || f.state == Slot::kFree) {
      ++out->v.unmatched;
      continue;
    }
    if (f.state == Slot::kAbandoned) {
      ++out->v.late;
      f.state = Slot::kFree;
      continue;
    }
    if (frame.status != 200) {
      ++out->v.bad_status;
      Complete(f, false, now, out);
      continue;
    }
    bool ok = false;
    for (const std::string& expect : spec_.http_bodies) {
      if (frame.content_length == expect.size() &&
          std::memcmp(body, expect.data(), expect.size()) == 0) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      ++out->v.bad_value;
    }
    Complete(f, ok, now, out);
  }
  if (r < 0) {
    ++out->v.malformed;
    off = len;
  }
  *consumed = off;
}

bool Generator::Pump(PhaseResult* out) {
  bool moved = false;
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (c.tx_off < c.tx.size()) {
      const uint64_t before = c.tx_total;
      Flush(c);
      moved |= c.tx_total != before;
    }
    if (c.rx_end == kRxBytes && c.rx_begin > 0) {
      std::memmove(c.rx, c.rx + c.rx_begin, c.rx_end - c.rx_begin);
      c.rx_end -= c.rx_begin;
      c.rx_begin = 0;
    }
    const ssize_t n = ::recv(c.fd, c.rx + c.rx_end, kRxBytes - c.rx_end, 0);
    if (n <= 0) {
      continue;
    }
    const uint64_t now = NowNs();
    moved = true;
    c.rx_end += static_cast<size_t>(n);
    size_t consumed = 0;
    if (spec_.proto == Proto::kMemcached) {
      VerifyMc(static_cast<int>(i), c.rx + c.rx_begin, c.rx_end - c.rx_begin, now, out,
               &consumed);
    } else {
      VerifyHttp(static_cast<int>(i), c.rx + c.rx_begin, c.rx_end - c.rx_begin, now, out,
                 &consumed);
    }
    c.rx_begin += consumed;
    if (c.rx_begin == c.rx_end) {
      c.rx_begin = c.rx_end = 0;
    }
  }
  return moved;
}

int Generator::InFlight() const {
  int n = 0;
  for (const Conn& c : conns_) {
    n += c.in_flight;
  }
  return n;
}

void Generator::Wait(uint64_t until_ns) {
  const uint64_t now = NowNs();
  constexpr uint64_t kSpinNs = 20'000;
  if (until_ns <= now + kSpinNs) {
    return;  // close enough to spin
  }
  pollfd fds[16];
  nfds_t n = 0;
  for (const Conn& c : conns_) {
    if (n == 16) {
      break;
    }
    fds[n].fd = c.fd;
    fds[n].events = static_cast<short>(POLLIN | (c.tx_off < c.tx.size() ? POLLOUT : 0));
    fds[n].revents = 0;
    ++n;
  }
  const uint64_t wait = until_ns - now - kSpinNs / 2;
  timespec ts{static_cast<time_t>(wait / 1'000'000'000ull),
              static_cast<long>(wait % 1'000'000'000ull)};
  ::ppoll(fds, n, &ts, nullptr);
}

void Generator::Drain(PhaseResult* out, uint64_t grace_ns) {
  const uint64_t deadline = NowNs() + grace_ns;
  while (InFlight() > 0 && NowNs() < deadline) {
    if (!Pump(out)) {
      Wait(NowNs() + 1'000'000);
    }
  }
  for (Flight& f : table_) {
    if (f.state == Slot::kInFlight) {
      f.state = Slot::kAbandoned;
      ++out->v.abandoned;
    }
  }
  for (Conn& c : conns_) {
    c.in_flight = 0;
  }
}

PhaseResult Generator::Warm(uint32_t keys, uint64_t timeout_ns) {
  PhaseResult out;
  open_phase_ = false;
  recording_ = false;
  window_begin_ = window_end_ = 0;
  const uint64_t deadline = NowNs() + timeout_ns;
  const int n = static_cast<int>(conns_.size());
  constexpr int kDepth = 32;
  uint32_t next = 0;
  while ((next < keys || InFlight() > 0) && NowNs() < deadline) {
    for (int c = 0; c < n && next < keys; ++c) {
      while (conns_[static_cast<size_t>(c)].in_flight < kDepth && next < keys) {
        Op op{next, spec_.read_opcode};
        if (!Issue(c, op, NowNs(), &out)) {
          break;
        }
        ++next;
      }
    }
    if (!Pump(&out)) {
      Wait(NowNs() + 1'000'000);
    }
  }
  Drain(&out, 0);
  return out;
}

PhaseResult Generator::RunOpen(double rps, uint64_t duration_ns, uint64_t schedule_seed,
                               bool record) {
  const std::vector<Arrival> schedule = OpenSchedule(spec_, rps, duration_ns, schedule_seed);
  // Precise ppoll wake-ups while the schedule runs (the default slack is
  // 50 us). Per thread, and reset afterwards so that threads this one starts
  // later (the service's) inherit the default.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult out;
  out.latency_ns.reserve(schedule.size());
  out.lateness_ns.reserve(schedule.size());
  open_phase_ = true;
  recording_ = record;
  const uint64_t start = NowNs() + 1'000'000;
  window_begin_ = start;
  window_end_ = start + duration_ns;
  size_t i = 0;
  while (i < schedule.size()) {
    const uint64_t now = NowNs();
    bool issued = false;
    while (i < schedule.size() && start + schedule[i].t_ns <= now) {
      const Arrival& a = schedule[i];
      if (!Issue(a.conn, a.op, start + a.t_ns, &out)) {
        ++out.v.sent;  // could not be issued at all: counts as abandoned
        ++out.v.abandoned;
      }
      out.lateness_ns.push_back(now - (start + a.t_ns));
      issued = true;
      ++i;
    }
    const bool moved = Pump(&out) || issued;
    if (!moved && i < schedule.size()) {
      Wait(start + schedule[i].t_ns);
    }
  }
  Drain(&out, 1'000'000'000);
  prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  recording_ = false;
  open_phase_ = false;
  out.seconds = static_cast<double>(duration_ns) / 1e9;
  return out;
}

PhaseResult Generator::RunSat(int depth, uint64_t warmup_ns, uint64_t duration_ns) {
  PhaseResult out;
  open_phase_ = false;
  recording_ = false;
  const uint64_t start = NowNs();
  window_begin_ = start + warmup_ns;
  window_end_ = window_begin_ + duration_ns;
  const int n = static_cast<int>(conns_.size());
  while (NowNs() < window_end_) {
    for (int c = 0; c < n; ++c) {
      Conn& conn = conns_[static_cast<size_t>(c)];
      while (conn.in_flight < depth) {
        if (!Issue(c, DrawOp(spec_, rng_, c), NowNs(), &out)) {
          break;
        }
      }
    }
    if (!Pump(&out)) {
      Wait(NowNs() + 1'000'000);
    }
  }
  Drain(&out, 1'000'000'000);
  out.seconds = static_cast<double>(duration_ns) / 1e9;
  return out;
}

}  // namespace perfbench
