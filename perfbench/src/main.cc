// flick_perfbench: one FLICK service on real loopback sockets, driven by one
// generator thread, with every reply checked.
//
//   flick_perfbench --workload <mc-route|mc-cache-rw|http-bulk> --seed N
//                   --seconds S --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with the bare kernel transport.
// --trace 1 measures the per-layer metrics: the service runs on the
// TracedTransport decorator, with allocation counting and byte capture on.
// Diagnostics go to stdout as "# name: value" lines; the last line is
// "PERFBENCH_RESULT <json>", which perfbench/run.py turns into the result.
#include <pthread.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "generator.h"
#include "lang/compile.h"
#include "load/backends.h"
#include "net/kernel_transport.h"
#include "proc_stats.h"
#include "proto/memcached.h"
#include "replay.h"
#include "rng.h"
#include "runtime/platform.h"
#include "services/dsl_service.h"
#include "services/http_lb.h"
#include "services/memcached_proxy.h"
#include "stages.h"
#include "traced_transport.h"
#include "wire.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using flick::services::BackendPoolStats;
using flick::services::RegistryStats;

constexpr uint32_t kKeys = 1000;
constexpr int kConnections = 4;
constexpr int kBackends = 2;
constexpr size_t kHttpBodyBytes = 16 * 1024;
// The plain run: rounds on fresh service instances, each set up this many
// times (the last set-up is measured).
constexpr int kRounds = 9;
constexpr int kSetupsPerRound = 3;

// The frozen traffic of each workload. open_rps is about a tenth of the
// workload's sat_rps on the reference host (4 vCPU, loopback): at a third the
// host's cores were nearly all busy and p50 swung between service instances
// (see METHOD.md). sat_depth is on the throughput plateau.
enum class Service { kDslRouter, kCacheProxy, kHttpLb };

struct WorkloadDef {
  const char* name;
  Service service;
  Proto proto;
  uint8_t read_opcode;
  double set_fraction;
  double open_rps;
  int sat_depth;
};

constexpr WorkloadDef kWorkloads[] = {
    {"mc-route", Service::kDslRouter, Proto::kMemcached, kMcGet, 0.0, 30000, 64},
    {"mc-cache-rw", Service::kCacheProxy, Proto::kMemcached, kMcGetK, 0.1, 30000, 64},
    {"http-bulk", Service::kHttpLb, Proto::kHttp, 0, 0.0, 10000, 32},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ------------------------------------------------------------- reporting ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Diag(const std::string& name, double value) {
  std::printf("# %s: %.6g\n", name.c_str(), value);
}

void DiagText(const std::string& name, const std::string& value) {
  std::printf("# %s: %s\n", name.c_str(), value.c_str());
}

// Nearest-rank quantile of a sorted sample.
uint64_t Quantile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) + static_cast<double>(v[n / 2])) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The bucket of the repo's flick::Histogram a value falls in: 16 linear
// buckets per power of two.
int HistogramBucket(uint64_t v) {
  if (v < 16) {
    return static_cast<int>(v);
  }
  const int major = 63 - __builtin_clzll(v);
  const int minor = static_cast<int>((v >> (major - 4)) & 15);
  return major * 16 + minor;
}

struct LatencySummary {
  double p50_ms = 0, p90_ms = 0;
};

LatencySummary Summarize(const std::string& phase, PhaseResult& r) {
  std::sort(r.latency_ns.begin(), r.latency_ns.end());
  std::sort(r.lateness_ns.begin(), r.lateness_ns.end());
  LatencySummary s;
  s.p50_ms = static_cast<double>(Quantile(r.latency_ns, 0.50)) / 1e6;
  s.p90_ms = static_cast<double>(Quantile(r.latency_ns, 0.90)) / 1e6;
  const double n = static_cast<double>(r.latency_ns.size());
  Diag(phase + ".samples", n);
  Diag(phase + ".p50_ms", s.p50_ms);
  Diag(phase + ".p90_ms", s.p90_ms);
  // The tail, with the number of samples beyond each percentile.
  Diag(phase + ".p99_ms", static_cast<double>(Quantile(r.latency_ns, 0.99)) / 1e6);
  Diag(phase + ".p99_samples_beyond", std::floor(n * 0.01));
  Diag(phase + ".p999_ms", static_cast<double>(Quantile(r.latency_ns, 0.999)) / 1e6);
  Diag(phase + ".p999_samples_beyond", std::floor(n * 0.001));
  Diag(phase + ".lateness_p50_us", static_cast<double>(Quantile(r.lateness_ns, 0.50)) / 1e3);
  Diag(phase + ".lateness_p99_us", static_cast<double>(Quantile(r.lateness_ns, 0.99)) / 1e3);
  return s;
}

void ReportVerdicts(const std::string& phase, const Verdicts& v) {
  Diag(phase + ".sent", static_cast<double>(v.sent));
  Diag(phase + ".ok", static_cast<double>(v.ok));
  Diag(phase + ".abandoned", static_cast<double>(v.abandoned));
  Diag(phase + ".bad_status", static_cast<double>(v.bad_status));
  Diag(phase + ".bad_value", static_cast<double>(v.bad_value));
  Diag(phase + ".stale_reads", static_cast<double>(v.stale_reads));
  Diag(phase + ".unmatched", static_cast<double>(v.unmatched));
  Diag(phase + ".malformed", static_cast<double>(v.malformed));
  Diag(phase + ".late", static_cast<double>(v.late));
  Diag(phase + ".conserved", v.conserved() ? 1 : 0);
}

// CPU of each thread group over a phase, in cores (1.0 = one busy core).
struct CpuWindow {
  ThreadCpu before;
  uint64_t t0 = 0;
  uint64_t steal0 = 0;
  void Begin() {
    before = ThreadCpu::Read();
    t0 = NowNs();
    steal0 = StealTicks();
  }
  // Prints every group's CPU and which of flick-* (poller and workers
  // together), the generator and the backends was busiest; returns CPU ns
  // per group.
  std::map<ThreadGroup, uint64_t> End(const std::string& phase) const {
    const ThreadCpu after = ThreadCpu::Read();
    const double wall = static_cast<double>(NowNs() - t0);
    std::map<ThreadGroup, uint64_t> by_group = CpuByGroup(before, after);
    for (ThreadGroup g : {ThreadGroup::kPoller, ThreadGroup::kWorker, ThreadGroup::kGenerator,
                          ThreadGroup::kBackend, ThreadGroup::kOther}) {
      Diag(phase + ".cpu_cores." + GroupName(g), static_cast<double>(by_group[g]) / wall);
    }
    std::string busiest = "flick-*";
    uint64_t busiest_ns = by_group[ThreadGroup::kPoller] + by_group[ThreadGroup::kWorker];
    for (ThreadGroup g : {ThreadGroup::kGenerator, ThreadGroup::kBackend}) {
      if (by_group[g] > busiest_ns) {
        busiest_ns = by_group[g];
        busiest = GroupName(g);
      }
    }
    DiagText(phase + ".busiest_group", busiest);
    Diag(phase + ".steal_ticks", static_cast<double>(StealTicks() - steal0));
    return by_group;
  }
};

// -------------------------------------------------------------- harness ----

class Harness {
 public:
  Harness(const WorkloadDef& def, uint64_t seed) : def_(def), seed_(seed), gen_(Spec(def, seed), seed) {}
  ~Harness() {
    Teardown();
    for (auto& b : mc_backends_) {
      b->Stop();
    }
    for (auto& b : http_backends_) {
      b->Stop();
    }
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  bool StartBackends() {
    for (int b = 0; b < kBackends; ++b) {
      if (def_.proto == Proto::kMemcached) {
        auto be = std::make_unique<flick::load::MemcachedBackend>(&backend_transport_, 0);
        for (uint32_t k = 0; k < kKeys; ++k) {
          be->Preload(KeyName(k), ValueFor(k, 0));
        }
        if (!be->Start().ok()) {
          return false;
        }
        ports_.push_back(backend_transport_.last_listen_port());
        mc_backends_.push_back(std::move(be));
      } else {
        auto be = std::make_unique<flick::load::HttpBackend>(&kernel_, 0,
                                                             HttpBody(seed_, b, kHttpBodyBytes));
        if (!be->Start().ok()) {
          return false;
        }
        ports_.push_back(be->port());
        http_backends_.push_back(std::move(be));
      }
    }
    return true;
  }

  // Builds, starts and warms one service instance; returns the set-up time
  // in seconds, or a negative value on failure.
  double Setup(bool traced, bool lower) {
    const uint64_t t0 = NowNs();
    if (traced) {
      sink_ = std::make_unique<TraceSink>(def_.proto == Proto::kHttp ? Framing::kHttp
                                                                      : Framing::kMemcached);
    }
    transport_ = std::make_unique<TracedTransport>(&kernel_, sink_.get());
    flick::runtime::PlatformConfig cfg;
    cfg.scheduler.num_workers = 2;
    cfg.scheduler.pin_threads = false;  // share the host with the generator and backends
    cfg.io_shards = 1;
    platform_ = std::make_unique<flick::runtime::Platform>(cfg, transport_.get());

    flick::services::WireOptions wire;
    wire.mode = flick::services::BackendMode::kPooled;
    wire.conns_per_backend = 2;
    if (def_.service == Service::kDslRouter) {
      flick::services::DslService::Options opts;
      opts.wire = wire;
      opts.lower = lower;
      auto svc = flick::services::DslService::Create(flick::services::kMemcachedRouterSource,
                                                     "memcached", ports_, opts);
      if (!svc.ok()) {
        std::fprintf(stderr, "compile failed: %s\n", svc.status().ToString().c_str());
        return -1;
      }
      dsl_ = svc->get();
      service_ = std::move(svc).value();
    } else if (def_.service == Service::kCacheProxy) {
      flick::services::MemcachedProxyService::Options opts;
      opts.wire = wire;
      opts.cache.enabled = true;
      auto svc = std::make_unique<flick::services::MemcachedProxyService>(ports_, opts);
      proxy_ = svc.get();
      service_ = std::move(svc);
    } else {
      flick::services::HttpLbService::Options opts;
      opts.wire = wire;
      auto svc = std::make_unique<flick::services::HttpLbService>(ports_, opts);
      lb_ = svc.get();
      service_ = std::move(svc);
    }
    if (!platform_->RegisterProgram(0, service_.get()).ok()) {
      return -1;
    }
    const uint16_t port = transport_->last_listen_port();
    platform_->Start();
    const bool connected = gen_.Connect(port);
    if (!connected) {
      std::fprintf(stderr, "could not connect to the service\n");
      return -1;
    }
    // Cache mode warms every key; the others need one verified reply.
    const uint32_t warm_keys = proxy_ != nullptr ? kKeys : 1;
    PhaseResult warm = gen_.Warm(warm_keys, 10'000'000'000ull);
    setup_verdicts_ += warm.v;
    if (warm.v.ok != warm.v.sent || warm.v.sent == 0) {
      std::fprintf(stderr, "warm-up failed: %llu of %llu verified\n",
                   static_cast<unsigned long long>(warm.v.ok),
                   static_cast<unsigned long long>(warm.v.sent));
      return -1;
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  void Teardown() {
    if (platform_ == nullptr) {
      return;
    }
    gen_.Close();
    const uint64_t deadline = NowNs() + 2'000'000'000ull;
    while (LiveGraphs() > 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    platform_->Stop();
    service_.reset();
    dsl_ = nullptr;
    proxy_ = nullptr;
    lb_ = nullptr;
    platform_.reset();
    transport_.reset();
    sink_.reset();
  }

  RegistryStats Registry() const {
    if (dsl_ != nullptr) {
      return dsl_->stats();
    }
    if (proxy_ != nullptr) {
      return proxy_->registry().stats();
    }
    return lb_ != nullptr ? lb_->registry().stats() : RegistryStats{};
  }

  BackendPoolStats Pool() const {
    const flick::services::BackendPool* pool =
        dsl_ != nullptr ? dsl_->pool() : proxy_ != nullptr ? proxy_->pool()
                                         : lb_ != nullptr ? lb_->pool() : nullptr;
    return pool != nullptr ? pool->stats() : BackendPoolStats{};
  }

  size_t LiveGraphs() const {
    return dsl_ != nullptr ? dsl_->live_graphs()
           : proxy_ != nullptr ? proxy_->live_graphs()
           : lb_ != nullptr ? lb_->live_graphs() : 0;
  }

  uint64_t SchedulerTasks() const { return platform_->scheduler().stats().tasks_run; }
  uint64_t MsgPoolMisses() const { return platform_->msg_pool_misses(); }

  // Counts printed at quiesce (nothing in flight): the pool's conservation
  // gap and every health-plane and fallback event. Nonzero is reported.
  void ReportQuiesce(const std::string& phase) const {
    const BackendPoolStats p = Pool();
    const RegistryStats r = Registry();
    Diag(phase + ".pool.forwarded", static_cast<double>(p.requests_forwarded));
    Diag(phase + ".pool.routed", static_cast<double>(p.responses_routed));
    Diag(phase + ".pool.failed", static_cast<double>(p.requests_failed));
    Diag(phase + ".pool.unanswered", static_cast<double>(Unanswered(p)));
    Diag(phase + ".pool.breaker_opens", static_cast<double>(p.breaker_opens));
    Diag(phase + ".pool.deadline_expiries", static_cast<double>(p.request_deadline_expiries));
    Diag(phase + ".pool.retries", static_cast<double>(p.retries_spent + p.retries_denied));
    Diag(phase + ".pool.disconnects", static_cast<double>(p.disconnects));
    Diag(phase + ".pool.responses_dropped", static_cast<double>(p.responses_dropped));
    Diag(phase + ".lang.interp_fallbacks", static_cast<double>(r.dsl_interp_fallbacks));
    Diag(phase + ".lang.lowered_msgs", static_cast<double>(r.dsl_lowered_msgs));
    Diag(phase + ".registry.launch_failures", static_cast<double>(r.launch_failures));
    Diag(phase + ".cache.stale_served", static_cast<double>(r.cache_stale_served));
  }

  static int64_t Unanswered(const BackendPoolStats& p) {
    return static_cast<int64_t>(p.requests_forwarded) - static_cast<int64_t>(p.responses_routed) -
           static_cast<int64_t>(p.requests_failed);
  }
  static uint64_t HealthEvents(const BackendPoolStats& p) {
    return p.breaker_opens + p.breaker_half_opens + p.breaker_closes +
           p.request_deadline_expiries + p.retries_spent + p.retries_denied + p.disconnects +
           p.dial_failures;
  }

  Generator& gen() { return gen_; }
  TraceSink* sink() { return sink_.get(); }
  const WorkloadDef& def() const { return def_; }
  const Verdicts& setup_verdicts() const { return setup_verdicts_; }

 private:
  static TrafficSpec Spec(const WorkloadDef& def, uint64_t seed) {
    TrafficSpec spec;
    spec.proto = def.proto;
    spec.read_opcode = def.read_opcode;
    spec.set_fraction = def.set_fraction;
    spec.keys = kKeys;
    spec.connections = kConnections;
    if (def.proto == Proto::kHttp) {
      for (int b = 0; b < kBackends; ++b) {
        spec.http_bodies.push_back(HttpBody(seed, b, kHttpBodyBytes));
      }
    }
    return spec;
  }

  WorkloadDef def_;
  uint64_t seed_;
  flick::KernelTransport kernel_;
  TracedTransport backend_transport_{&kernel_, nullptr};
  std::vector<std::unique_ptr<flick::load::MemcachedBackend>> mc_backends_;
  std::vector<std::unique_ptr<flick::load::HttpBackend>> http_backends_;
  std::vector<uint16_t> ports_;

  // The current service instance, torn down in reverse order.
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<TracedTransport> transport_;
  std::unique_ptr<flick::runtime::Platform> platform_;
  std::unique_ptr<flick::runtime::ServiceProgram> service_;
  flick::services::DslService* dsl_ = nullptr;
  flick::services::MemcachedProxyService* proxy_ = nullptr;
  flick::services::HttpLbService* lb_ = nullptr;

  Generator gen_;
  Verdicts setup_verdicts_;
};

uint64_t Ns(double seconds) { return static_cast<uint64_t>(seconds * 1e9); }

// Verdict totals over every phase of a run, for `attempted`/`failed`.
struct Totals {
  Verdicts v;
  bool conserved = true;
  void Add(const Verdicts& phase) {
    v += phase;
    conserved = conserved && phase.conserved();
  }
  uint64_t failed() const { return v.errors() + v.abandoned; }
};

void PrintResult(const Totals& t, const std::vector<Metric>& metrics) {
  const bool correct = t.conserved && t.failed() == 0 && t.v.sent > 0;
  Diag("error_frac", Ratio(static_cast<double>(t.failed()), static_cast<double>(t.v.sent)));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.v.sent);
  json += ", \"failed\": " + std::to_string(t.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[512];
    double value = metrics[i].value;
    if (!std::isfinite(value)) {
      value = 0;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
}

void PrintFingerprint() {
  utsname u{};
  uname(&u);
  Diag("host.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  DiagText("host.kernel", std::string(u.sysname) + " " + u.release);
  DiagText("host.compiler", std::string("gcc ") + __VERSION__);
  DiagText("host.build_type", PERFBENCH_BUILD_TYPE);
  DiagText("host.transport", "kernel loopback (127.0.0.1)");
}

// ---------------------------------------------------------------- plain ----

int RunPlain(const WorkloadDef& def, const Args& args) {
  Harness h(def, args.seed);
  if (!h.StartBackends()) {
    std::fprintf(stderr, "backends failed to start\n");
    return 1;
  }
  // Each round runs on a fresh service instance (new threads, new placement
  // on the host's cores); the run reports the median over rounds.
  Totals totals;
  std::vector<double> setups, p50s, p90s, sats, cpus;
  const double round_s = args.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    const std::string tag = "round" + std::to_string(round);
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const double s = h.Setup(/*traced=*/false, /*lower=*/true);
      if (s < 0) {
        return 1;
      }
      setups.push_back(s);
      Diag(tag + ".setup" + std::to_string(i) + "_ms", s * 1e3);
      if (i + 1 < kSetupsPerRound) {
        h.Teardown();
      }
    }
    CpuWindow cpu;
    cpu.Begin();
    PhaseResult open = h.gen().RunOpen(def.open_rps, Ns(round_s * 0.5),
                                       args.seed * kRounds + static_cast<uint64_t>(round), false);
    auto open_cpu = cpu.End(tag + ".open");
    const LatencySummary lat = Summarize(tag + ".open", open);
    ReportVerdicts(tag + ".open", open.v);
    totals.Add(open.v);
    p50s.push_back(lat.p50_ms);
    p90s.push_back(lat.p90_ms);
    const double flick_ns = static_cast<double>(open_cpu[ThreadGroup::kPoller] +
                                                open_cpu[ThreadGroup::kWorker]);
    cpus.push_back(Ratio(flick_ns / 1e3, static_cast<double>(open.v.ok)));

    cpu.Begin();
    PhaseResult sat = h.gen().RunSat(def.sat_depth, Ns(round_s * 0.1), Ns(round_s * 0.4));
    cpu.End(tag + ".sat");
    ReportVerdicts(tag + ".sat", sat.v);
    totals.Add(sat.v);
    sats.push_back(static_cast<double>(sat.completed_in_window) / sat.seconds);
    Diag(tag + ".sat.rps", sats.back());
    h.ReportQuiesce(tag + ".quiesce");
    h.Teardown();
  }
  totals.Add(h.setup_verdicts());
  Diag("open.offered_rps", def.open_rps);

  std::vector<Metric> metrics = {
      {"p50_ms", Median(p50s), "ms"},
      {"p90_ms", Median(p90s), "ms"},
      {"sat_rps", Median(sats), "req/s"},
      {"cpu_us_per_req", Median(cpus), "us"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  PrintResult(totals, metrics);
  return 0;
}

// --------------------------------------------------------------- traced ----

struct SatCounters {
  LegSnapshot client, backend;
  BackendPoolStats pool;
  RegistryStats reg;
  uint64_t tasks = 0;
  alloc::Counts alloc;
};

SatCounters Snap(Harness& h) {
  SatCounters c;
  c.client = h.sink()->Snapshot(kClientLeg);
  c.backend = h.sink()->Snapshot(kBackendLeg);
  c.pool = h.Pool();
  c.reg = h.Registry();
  c.tasks = h.SchedulerTasks();
  c.alloc = alloc::Read();
  return c;
}

StageInput CollectStages(Harness& h, std::vector<ReqRecord> records) {
  StageInput in;
  in.framing = h.def().proto == Proto::kHttp ? Framing::kHttp : Framing::kMemcached;
  in.records = std::move(records);
  for (const auto& conn : h.sink()->conns()) {
    std::vector<ConnEvents>& side = conn->leg == kClientLeg ? in.client : in.backend;
    if (side.size() <= conn->index) {
      side.resize(conn->index + 1);
    }
    std::lock_guard<std::mutex> rx_lock(conn->rx_mu);
    std::lock_guard<std::mutex> tx_lock(conn->tx_mu);
    side[conn->index].rx = conn->rx.events();
    side[conn->index].tx = conn->tx.events();
  }
  return in;
}

std::string Capture(Harness& h, Leg leg, bool rx) {
  for (const auto& conn : h.sink()->conns()) {
    if (conn->leg == leg && conn->index == 0) {
      std::lock_guard<std::mutex> lock(rx ? conn->rx_mu : conn->tx_mu);
      return rx ? conn->rx.capture() : conn->tx.capture();
    }
  }
  return {};
}

int RunTraced(const WorkloadDef& def, const Args& args) {
  Harness h(def, args.seed);
  if (!h.StartBackends()) {
    return 1;
  }
  const bool dsl = def.service == Service::kDslRouter;
  const double S = args.seconds;
  Totals totals;
  std::vector<Metric> m;
  auto add = [&m](const std::string& name, double value, const std::string& unit) {
    m.push_back(Metric{name, value, unit});
  };

  // 1. Untraced open phase: the base of trace.overhead_frac.
  if (h.Setup(false, true) < 0) {
    return 1;
  }
  PhaseResult base = h.gen().RunOpen(def.open_rps, Ns(S * (dsl ? 0.15 : 0.2)), args.seed, false);
  const LatencySummary base_lat = Summarize("untraced_open", base);
  totals.Add(base.v);
  h.Teardown();

  // 2. Traced open phase: stages, readiness, CPU split, cache hits.
  if (h.Setup(true, true) < 0) {
    return 1;
  }
  alloc::Enable(true);
  CpuWindow cpu;
  const LegSnapshot c0 = h.sink()->Snapshot(kClientLeg);
  const LegSnapshot b0 = h.sink()->Snapshot(kBackendLeg);
  const RegistryStats r0 = h.Registry();
  h.sink()->set_recording(true);
  cpu.Begin();
  PhaseResult open = h.gen().RunOpen(def.open_rps, Ns(S * (dsl ? 0.25 : 0.35)), args.seed, true);
  auto open_cpu = cpu.End("traced_open");
  h.sink()->set_recording(false);
  const LatencySummary open_lat = Summarize("traced_open", open);
  ReportVerdicts("traced_open", open.v);
  totals.Add(open.v);
  const LegSnapshot c1 = h.sink()->Snapshot(kClientLeg) - c0;
  const LegSnapshot b1 = h.sink()->Snapshot(kBackendLeg) - b0;
  const RegistryStats r1 = h.Registry();
  const double open_ok = static_cast<double>(open.v.ok);

  uint64_t unattributed = 0;
  std::vector<StageSample> stages =
      AttributeStages(CollectStages(h, std::move(open.records)), &unattributed);
  std::vector<int64_t> send_lag, ingest, dispatch, backend, reply, hit, egress;
  int64_t sum_mismatch = 0;
  for (const StageSample& s : stages) {
    send_lag.push_back(s.send_lag);
    ingest.push_back(s.ingest_wait);
    egress.push_back(s.egress_wait);
    if (s.hit) {
      hit.push_back(s.hit_ns);
    } else {
      dispatch.push_back(s.dispatch);
      backend.push_back(s.backend);
      reply.push_back(s.reply);
    }
    sum_mismatch += s.Sum() != s.latency ? 1 : 0;
  }
  Diag("stage.samples", static_cast<double>(stages.size()));
  Diag("stage.unattributed", static_cast<double>(unattributed));
  Diag("stage.sum_mismatches", static_cast<double>(sum_mismatch));

  add("stage.send_lag_us", Median(send_lag) / 1e3, "us");
  add("stage.ingest_wait_us", Median(ingest) / 1e3, "us");
  add("stage.dispatch_us", Median(dispatch) / 1e3, "us");
  add("stage.backend_us", Median(backend) / 1e3, "us");
  add("stage.reply_us", Median(reply) / 1e3, "us");
  add("stage.hit_us", Median(hit) / 1e3, "us");
  add("stage.egress_wait_us", Median(egress) / 1e3, "us");
  add("stage.attributed_frac",
      Ratio(static_cast<double>(stages.size()), static_cast<double>(stages.size() + unattributed)),
      "ratio");
  add("net.ready_probes_per_req",
      Ratio(static_cast<double>(c1.ready_probes + b1.ready_probes), open_ok), "count");
  add("net.empty_read_frac",
      Ratio(static_cast<double>(c1.reads_empty + b1.reads_empty),
            static_cast<double>(c1.reads() + b1.reads())),
      "ratio");
  add("runtime.poller_cpu_us_per_req",
      Ratio(static_cast<double>(open_cpu[ThreadGroup::kPoller]) / 1e3, open_ok), "us");
  add("runtime.worker_cpu_us_per_req",
      Ratio(static_cast<double>(open_cpu[ThreadGroup::kWorker]) / 1e3, open_ok), "us");
  add("runtime.idle_sweep_frac",
      Ratio(static_cast<double>(r1.sweeps_idle - r0.sweeps_idle),
            static_cast<double>(r1.sweeps - r0.sweeps)),
      "ratio");
  const double hits = static_cast<double>(r1.cache_hits - r0.cache_hits);
  const double misses = static_cast<double>(r1.cache_misses - r0.cache_misses);
  add("cache.hit_frac", Ratio(hits, hits + misses), "ratio");
  add("trace.overhead_frac", Ratio(open_lat.p50_ms - base_lat.p50_ms, base_lat.p50_ms), "ratio");

  // 3. Traced sat phase: per-request call counts, pool batching, allocations.
  const SatCounters s0 = Snap(h);
  cpu.Begin();
  PhaseResult sat = h.gen().RunSat(def.sat_depth, Ns(S * 0.05), Ns(S * (dsl ? 0.15 : 0.3)));
  cpu.End("traced_sat");
  ReportVerdicts("traced_sat", sat.v);
  totals.Add(sat.v);
  const SatCounters s1 = Snap(h);
  const double sat_ok = static_cast<double>(sat.v.ok);
  const double sat_rps = static_cast<double>(sat.completed_in_window) / sat.seconds;
  Diag("traced_sat.rps", sat_rps);
  const LegSnapshot sc = s1.client - s0.client;
  const LegSnapshot sb = s1.backend - s0.backend;
  add("net.client.readv_per_req", Ratio(static_cast<double>(sc.reads()), sat_ok), "count");
  add("net.client.writev_per_req", Ratio(static_cast<double>(sc.writes()), sat_ok), "count");
  add("net.backend.readv_per_req", Ratio(static_cast<double>(sb.reads()), sat_ok), "count");
  add("net.backend.writev_per_req", Ratio(static_cast<double>(sb.writes()), sat_ok), "count");
  add("net.bytes_per_writev",
      Ratio(static_cast<double>(sc.bytes_written + sb.bytes_written),
            static_cast<double>(sc.writes() + sb.writes())),
      "B");
  add("net.busy_us_per_req", Ratio(static_cast<double>(sc.busy_ns + sb.busy_ns) / 1e3, sat_ok),
      "us");
  add("runtime.tasks_run_per_req", Ratio(static_cast<double>(s1.tasks - s0.tasks), sat_ok),
      "count");
  add("runtime.timers_armed_per_req",
      Ratio(static_cast<double>(s1.reg.timers_armed - s0.reg.timers_armed), sat_ok), "count");
  add("runtime.msg_pool_misses", static_cast<double>(h.MsgPoolMisses()), "count");
  add("pool.msgs_per_writev",
      Ratio(static_cast<double>(s1.pool.requests_forwarded - s0.pool.requests_forwarded),
            static_cast<double>(s1.pool.writev_calls - s0.pool.writev_calls)),
      "count");
  add("pool.readv_per_resp",
      Ratio(static_cast<double>(s1.pool.readv_calls - s0.pool.readv_calls),
            static_cast<double>(s1.pool.responses_routed - s0.pool.responses_routed)),
      "count");
  add("pool.unanswered", static_cast<double>(Harness::Unanswered(s1.pool)), "count");
  add("pool.health_events", static_cast<double>(Harness::HealthEvents(s1.pool)), "count");
  add("cache.stale_drops_per_set",
      Ratio(static_cast<double>(s1.reg.cache_stale_populates_dropped),
            static_cast<double>(open.sets_sent + sat.sets_sent)),
      "ratio");
  add("alloc.per_req", Ratio(static_cast<double>(s1.alloc.allocs - s0.alloc.allocs), sat_ok),
      "count");
  add("alloc.bytes_per_req", Ratio(static_cast<double>(s1.alloc.bytes - s0.alloc.bytes), sat_ok),
      "B");
  const double lowered = static_cast<double>(s1.reg.dsl_lowered_msgs - s0.reg.dsl_lowered_msgs);
  const double fallbacks =
      static_cast<double>(s1.reg.dsl_interp_fallbacks - s0.reg.dsl_interp_fallbacks);
  add("lang.lowered_frac", Ratio(lowered, lowered + fallbacks), "ratio");
  alloc::Enable(false);
  h.ReportQuiesce("traced_quiesce");

  const std::string client_rx = Capture(h, kClientLeg, /*rx=*/true);
  const std::string backend_rx = Capture(h, kBackendLeg, /*rx=*/true);
  h.Teardown();

  // 4. mc-route only: the same traced phases with the interpreter.
  double interp_rps = 0;
  double gap_buckets = 0;
  if (dsl) {
    if (h.Setup(true, false) < 0) {
      return 1;
    }
    PhaseResult iopen = h.gen().RunOpen(def.open_rps, Ns(S * 0.15), args.seed, false);
    const LatencySummary ilat = Summarize("interp_open", iopen);
    totals.Add(iopen.v);
    PhaseResult isat = h.gen().RunSat(def.sat_depth, Ns(S * 0.05), Ns(S * 0.15));
    ReportVerdicts("interp_sat", isat.v);
    totals.Add(isat.v);
    interp_rps = static_cast<double>(isat.completed_in_window) / isat.seconds;
    Diag("lang.sat_rps.lowered", sat_rps);
    Diag("lang.sat_rps.interp", interp_rps);
    Diag("lang.p50_ms.lowered", open_lat.p50_ms);
    Diag("lang.p50_ms.interp", ilat.p50_ms);
    gap_buckets = std::abs(HistogramBucket(static_cast<uint64_t>(ilat.p50_ms * 1e6)) -
                           HistogramBucket(static_cast<uint64_t>(open_lat.p50_ms * 1e6)));
    h.ReportQuiesce("interp_quiesce");
    h.Teardown();
  }
  add("lang.sat_ratio_lowered_over_interp", Ratio(sat_rps, interp_rps), "ratio");
  add("lang.p50_gap_buckets", gap_buckets, "count");

  // 5. Replay of the captured bytes through single layers.
  ReplayTimings rt;
  if (def.proto == Proto::kMemcached) {
    if (dsl) {
      // The grammar the DSL synthesised for Listing 1's `cmd` record.
      auto program = flick::lang::CompileSource(flick::services::kMemcachedRouterSource);
      if (program.ok() && (*program)->UnitFor("cmd") != nullptr) {
        ReplayGrammar(client_rx, *(*program)->UnitFor("cmd"), &rt);
      }
      ReplayDispatch(client_rx, kBackends, &rt);
    } else {
      ReplayGrammar(client_rx, flick::proto::MemcachedUnit(), &rt);
      ReplayState(client_rx, &rt);
    }
  } else {
    ReplayHttp(backend_rx, &rt);
  }
  Diag("replay.request_bytes", static_cast<double>(client_rx.size()));
  Diag("replay.reply_bytes", static_cast<double>(backend_rx.size()));
  add("grammar.parse_ns_per_msg", rt.grammar_parse_ns, "ns");
  add("grammar.serialize_ns_per_msg", rt.grammar_serialize_ns, "ns");
  add("proto.http_parse_ns_per_msg", rt.http_parse_ns, "ns");
  add("proto.http_serialize_ns_per_msg", rt.http_serialize_ns, "ns");
  add("lang.dispatch_ns.lowered", rt.lowered_ns, "ns");
  add("lang.dispatch_ns.interp", rt.interp_ns, "ns");
  add("state.get_ns", rt.state_get_ns, "ns");
  add("state.put_ns", rt.state_put_ns, "ns");
  add("error_frac",
      Ratio(static_cast<double>(totals.failed()), static_cast<double>(totals.v.sent)), "ratio");
  PrintResult(totals, m);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  pthread_setname_np(pthread_self(), "bench-gen");
  alloc::ExcludeThisThread();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flick_perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) {
      def = &w;
    }
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  PrintFingerprint();
  DiagText("workload", def->name);
  Diag("seed", static_cast<double>(args.seed));
  return args.trace ? RunTraced(*def, args) : RunPlain(*def, args);
}
