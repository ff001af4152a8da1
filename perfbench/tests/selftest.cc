// Self-tests of the benchmark harness: the tracing decorator is byte-
// transparent, reply matching and framing survive reordering and split reads,
// the open-loop schedule is a pure function of the seed, and the stage
// attribution partitions each request's latency exactly.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "generator.h"
#include "net/kernel_transport.h"
#include "proto/memcached.h"
#include "stages.h"
#include "traced_transport.h"
#include "wire.h"

namespace perfbench {
namespace {

// A one-connection blocking loopback server. `serve(fd)` runs on its own
// thread once a client connects.
class FakeServer {
 public:
  explicit FakeServer(std::function<void(int)> serve) : serve_(std::move(serve)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        serve_(fd);
        ::close(fd);
      }
    });
  }
  ~FakeServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;
  uint16_t port() const { return port_; }

 private:
  std::function<void(int)> serve_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

void WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

std::string McReply(uint8_t opcode, std::string_view key, std::string_view value,
                    uint32_t opaque) {
  flick::grammar::Message msg;
  flick::proto::BuildResponse(&msg, opcode, flick::proto::kMemcachedStatusOk, key, value, opaque);
  return flick::proto::ToWire(msg);
}

TrafficSpec OneConnSpec(Proto proto) {
  TrafficSpec spec;
  spec.proto = proto;
  spec.read_opcode = kMcGetK;
  spec.keys = 1000;
  spec.connections = 1;
  return spec;
}

// ------------------------------------------------------------------- wire ----

TEST(Wire, RequestsMatchTheProtoBuilder) {
  for (uint8_t op : {kMcGet, kMcGetK, kMcSet}) {
    const std::string value = op == kMcSet ? ValueFor(7, 3) : "";
    std::string ours;
    AppendMcRequest(&ours, op, KeyName(7), value, 0xdeadbeef);
    flick::grammar::Message msg;
    flick::proto::BuildRequest(&msg, op, KeyName(7), value, 0xdeadbeef);
    EXPECT_EQ(ours, flick::proto::ToWire(msg)) << "opcode " << int(op);
  }
}

TEST(Wire, ValuesNameTheirKeyAndVersion) {
  uint32_t version = 0;
  EXPECT_TRUE(ParseValue(ValueFor(42, 9), 42, &version));
  EXPECT_EQ(version, 9u);
  EXPECT_FALSE(ParseValue(ValueFor(43, 9), 42, &version));
  std::string corrupt = ValueFor(42, 9);
  corrupt.back() ^= 1;
  EXPECT_FALSE(ParseValue(corrupt, 42, &version));
}

// -------------------------------------------------------------- decorator ----

// Sends `payload` client -> accepted connection (read with Readv) and back
// (written with Writev) through `transport`; returns what each side saw.
std::pair<std::string, std::string> EchoThrough(flick::Transport* transport,
                                                const std::string& payload) {
  flick::KernelTransport raw;
  auto listener = transport->Listen(0);
  EXPECT_TRUE(listener.ok());
  auto client = raw.Connect((*listener)->port());
  EXPECT_TRUE(client.ok());
  std::unique_ptr<flick::Connection> server;
  while (server == nullptr) {
    server = (*listener)->Accept();
  }
  size_t sent = 0;
  while (sent < payload.size()) {
    auto n = (*client)->Write(payload.data() + sent, payload.size() - sent);
    EXPECT_TRUE(n.ok());
    sent += *n;
  }
  std::string got(payload.size(), '\0');
  size_t filled = 0;
  while (filled < got.size()) {
    // Two slices, so a message straddles the slice boundary.
    const size_t half = (got.size() - filled) / 2;
    flick::MutIoSlice slices[2] = {{reinterpret_cast<uint8_t*>(&got[filled]), half},
                                   {reinterpret_cast<uint8_t*>(&got[filled + half]),
                                    got.size() - filled - half}};
    auto n = server->Readv(slices, 2);
    EXPECT_TRUE(n.ok());
    filled += *n;
  }
  const size_t cut = got.size() / 3;
  flick::IoSlice out[2] = {{got.data(), cut}, {got.data() + cut, got.size() - cut}};
  // Small enough for the socket buffer: one writev takes it all.
  auto wrote = server->Writev(out, 2);
  EXPECT_TRUE(wrote.ok());
  EXPECT_EQ(*wrote, got.size());
  std::string back(payload.size(), '\0');
  size_t read = 0;
  while (read < back.size()) {
    auto n = (*client)->Read(&back[read], back.size() - read);
    EXPECT_TRUE(n.ok());
    read += *n;
  }
  return {got, back};
}

TEST(Decorator, IsByteTransparent) {
  std::string payload;
  for (uint32_t i = 0; i < 50; ++i) {
    AppendMcRequest(&payload, i % 2 == 0 ? kMcGet : kMcSet, KeyName(i),
                    i % 2 == 0 ? "" : ValueFor(i, 1), i);
  }
  flick::KernelTransport kernel;
  TracedTransport bare(&kernel, nullptr);
  TraceSink sink(Framing::kMemcached);
  TracedTransport traced(&kernel, &sink);
  sink.set_recording(true);

  const auto plain = EchoThrough(&bare, payload);
  const auto through = EchoThrough(&traced, payload);
  EXPECT_EQ(plain.first, payload);
  EXPECT_EQ(plain.second, payload);
  EXPECT_EQ(through.first, plain.first);
  EXPECT_EQ(through.second, plain.second);

  // The taps framed every record in both directions, with the opaques.
  ASSERT_EQ(sink.conns().size(), 1u);
  const std::shared_ptr<ConnTrace> conn = sink.conns()[0];
  ASSERT_EQ(conn->rx.events().size(), 50u);
  ASSERT_EQ(conn->tx.events().size(), 50u);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(conn->rx.events()[i].id, i);
    EXPECT_EQ(conn->tx.events()[i].seq, i);
  }
  EXPECT_EQ(conn->rx.capture(), payload);
  EXPECT_EQ(sink.Snapshot(kClientLeg).bytes_read, payload.size());
  EXPECT_EQ(sink.Snapshot(kClientLeg).bytes_written, payload.size());
}

// --------------------------------------------------------------- matching ----

// Reads `batch` pipelined requests, then answers all of them in REVERSE
// order; with `corrupt_one` the value of the fourth reply is wrong.
void ReversingMcServer(int fd, size_t batch, bool corrupt_one) {
  std::string rx;
  std::vector<std::string> replies;
  char buf[4096];
  while (replies.size() < batch) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return;
    }
    rx.append(buf, static_cast<size_t>(n));
    McFrame f;
    size_t off = 0;
    while (FrameMc(rx.data() + off, rx.size() - off, &f) == 1) {
      uint32_t key = 0;
      ParseKeyName(f.key, &key);
      std::string value = ValueFor(key, 0);
      if (corrupt_one && replies.size() == 3) {
        value[1] = 'X';
      }
      replies.push_back(McReply(f.opcode, f.key, value, f.opaque));
      off += f.size;
    }
    rx.erase(0, off);
  }
  std::string out;
  for (auto it = replies.rbegin(); it != replies.rend(); ++it) {
    out += *it;
  }
  WriteAll(fd, out);
}

TEST(Generator, MatchesReorderedPipelinedRepliesByOpaque) {
  FakeServer server([](int fd) { ReversingMcServer(fd, 24, false); });
  Generator gen(OneConnSpec(Proto::kMemcached), 1);
  ASSERT_TRUE(gen.Connect(server.port()));
  const PhaseResult r = gen.Warm(24, 5'000'000'000ull);
  EXPECT_EQ(r.v.sent, 24u);
  EXPECT_EQ(r.v.ok, 24u);
  EXPECT_EQ(r.v.errors(), 0u);
  EXPECT_TRUE(r.v.conserved());
  gen.Close();
}

TEST(Generator, CountsAWrongValueAsAnError) {
  FakeServer server([](int fd) { ReversingMcServer(fd, 24, true); });
  Generator gen(OneConnSpec(Proto::kMemcached), 1);
  ASSERT_TRUE(gen.Connect(server.port()));
  const PhaseResult r = gen.Warm(24, 5'000'000'000ull);
  EXPECT_EQ(r.v.ok, 23u);
  EXPECT_EQ(r.v.bad_value, 1u);
  EXPECT_TRUE(r.v.conserved());
  gen.Close();
}

// ---------------------------------------------------------------- framing ----

std::string HttpResponse(const std::string& body) {
  return "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: keep-alive\r\n\r\n" + body;
}

TEST(Framing, HttpFramesOnlyWhenWhole) {
  const std::string body = HttpBody(3, 0, 1000);
  const std::string wire = HttpResponse(body);
  HttpFrame f;
  for (size_t len = 0; len < wire.size(); len += 7) {
    EXPECT_EQ(FrameHttp(wire.data(), len, &f), 0) << len;
  }
  ASSERT_EQ(FrameHttp(wire.data(), wire.size(), &f), 1);
  EXPECT_EQ(f.status, 200);
  EXPECT_EQ(f.content_length, body.size());
  EXPECT_EQ(f.size, wire.size());

  std::string request;
  AppendHttpGet(&request, 123456789);
  ASSERT_EQ(FrameHttp(request.data(), request.size(), &f), 1);
  EXPECT_EQ(f.target_id, 123456789u);
}

TEST(Framing, TapSeesTheSameMessagesWholeOrByteByByte) {
  std::string stream;
  for (int i = 0; i < 3; ++i) {
    AppendHttpGet(&stream, 100 + i);
    stream += HttpResponse(HttpBody(1, i, 300));
  }
  StreamTap whole(Framing::kHttp);
  whole.Feed(stream.data(), stream.size(), 1, true);
  StreamTap bytewise(Framing::kHttp);
  for (char c : stream) {
    bytewise.Feed(&c, 1, 1, true);
  }
  ASSERT_EQ(whole.events().size(), 6u);
  ASSERT_EQ(bytewise.events().size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(whole.events()[i].id, bytewise.events()[i].id);
    EXPECT_EQ(whole.events()[i].seq, i);
  }
  EXPECT_EQ(whole.events()[0].id, 100u);
  EXPECT_EQ(whole.events()[2].id, 101u);
}

TEST(Generator, VerifiesHttpRepliesSplitAcrossReads) {
  const std::string body = HttpBody(9, 1, 16 * 1024);
  FakeServer server([&body](int fd) {
    std::string rx;
    char buf[4096];
    int answered = 0;
    while (answered < 3) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) {
        return;
      }
      rx.append(buf, static_cast<size_t>(n));
      HttpFrame f;
      while (FrameHttp(rx.data(), rx.size(), &f) == 1) {
        rx.erase(0, f.size);
        // Dribble the reply out in small pieces.
        const std::string reply = HttpResponse(body);
        for (size_t off = 0; off < reply.size(); off += 1000) {
          WriteAll(fd, reply.substr(off, 1000));
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ++answered;
      }
    }
  });
  TrafficSpec spec = OneConnSpec(Proto::kHttp);
  spec.http_bodies = {HttpBody(9, 0, 16 * 1024), body};
  Generator gen(spec, 1);
  ASSERT_TRUE(gen.Connect(server.port()));
  const PhaseResult r = gen.Warm(3, 5'000'000'000ull);
  EXPECT_EQ(r.v.ok, 3u);
  EXPECT_EQ(r.v.errors(), 0u);
  gen.Close();
}

// --------------------------------------------------------------- schedule ----

TEST(Schedule, IsDeterministicForASeed) {
  TrafficSpec spec;
  spec.read_opcode = kMcGetK;
  spec.set_fraction = 0.1;
  spec.connections = 4;
  const auto a = OpenSchedule(spec, 50'000, 200'000'000, 42);
  const auto b = OpenSchedule(spec, 50'000, 200'000'000, 42);
  const auto c = OpenSchedule(spec, 50'000, 200'000'000, 43);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_ns, b[i].t_ns);
    EXPECT_EQ(a[i].op.key, b[i].op.key);
    EXPECT_EQ(a[i].op.op, b[i].op.op);
    EXPECT_EQ(a[i].conn, b[i].conn);
  }
  EXPECT_FALSE(a.size() == c.size() && a[0].t_ns == c[0].t_ns) << "another seed, another schedule";
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const Arrival& l, const Arrival& r) { return l.t_ns < r.t_ns; }));
  // Poisson at 50k/s over 0.2 s: 10000 arrivals, well within 5%.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  size_t sets = 0;
  for (const Arrival& x : a) {
    if (x.op.op == kMcSet) {
      ++sets;
      EXPECT_EQ(x.op.key % 4, static_cast<uint32_t>(x.conn)) << "SETs of a key share a connection";
    }
  }
  EXPECT_NEAR(static_cast<double>(sets) / static_cast<double>(a.size()), 0.1, 0.02);
}

// ----------------------------------------------------------------- stages ----

TEST(Stages, PartitionEachRequestsLatency) {
  StageInput in;
  in.framing = Framing::kMemcached;
  in.client.resize(1);
  in.backend.resize(1);
  // Request 7 goes through a backend; request 8 is a cache hit.
  in.records.push_back(ReqRecord{7, 0, 1000, 1010, 1500});
  in.records.push_back(ReqRecord{8, 0, 2000, 2003, 2100});
  in.records.push_back(ReqRecord{9, 0, 3000, 3001, 3100});  // never seen by the service
  in.client[0].rx = {{1050, 7, 0}, {2020, 8, 1}};
  in.client[0].tx = {{2060, 8, 0}, {1400, 7, 1}};
  in.backend[0].tx = {{1100, 7, 0}};
  in.backend[0].rx = {{1300, 7, 0}};
  uint64_t unattributed = 0;
  const std::vector<StageSample> s = AttributeStages(in, &unattributed);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(unattributed, 1u);
  for (const StageSample& x : s) {
    EXPECT_EQ(x.Sum(), x.latency) << "request " << x.id;
  }
  EXPECT_FALSE(s[0].hit);
  EXPECT_EQ(s[0].send_lag, 10);
  EXPECT_EQ(s[0].ingest_wait, 40);
  EXPECT_EQ(s[0].dispatch, 50);
  EXPECT_EQ(s[0].backend, 200);
  EXPECT_EQ(s[0].reply, 100);
  EXPECT_EQ(s[0].egress_wait, 100);
  EXPECT_TRUE(s[1].hit);
  EXPECT_EQ(s[1].hit_ns, 40);

  // HTTP: replies are matched to requests in order per connection.
  StageInput h;
  h.framing = Framing::kHttp;
  h.client.resize(1);
  h.backend.resize(1);
  h.records.push_back(ReqRecord{11, 0, 0, 5, 100});
  h.client[0].rx = {{10, 11, 4}};
  h.client[0].tx = {{90, 0, 4}};
  h.backend[0].tx = {{20, 11, 0}};
  h.backend[0].rx = {{70, 0, 0}};
  const std::vector<StageSample> hs = AttributeStages(h, &unattributed);
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_EQ(hs[0].Sum(), 100);
  EXPECT_EQ(hs[0].backend, 50);
}

}  // namespace
}  // namespace perfbench
