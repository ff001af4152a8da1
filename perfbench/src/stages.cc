#include "stages.h"

#include <unordered_map>

namespace perfbench {
namespace {

using TimeById = std::unordered_map<uint64_t, uint64_t>;

// Memcached ids travel as the 32-bit opaque; HTTP ids in full.
uint64_t WireId(Framing f, uint64_t id) { return f == Framing::kMemcached ? (id & 0xffffffffu) : id; }

void KeepFirst(TimeById& m, uint64_t id, uint64_t t) { m.emplace(id, t); }

}  // namespace

std::vector<StageSample> AttributeStages(const StageInput& in, uint64_t* unattributed) {
  TimeById ingest, client_tx, backend_tx, backend_rx;
  for (const ConnEvents& c : in.client) {
    // Client reads carry the id in both framings. Replies: memcached carries
    // the opaque; HTTP replies answer the connection's requests in order.
    std::unordered_map<uint64_t, uint64_t> id_by_seq;
    for (const MsgEvent& e : c.rx) {
      KeepFirst(ingest, e.id, e.t_ns);
      id_by_seq.emplace(e.seq, e.id);
    }
    for (const MsgEvent& e : c.tx) {
      if (in.framing == Framing::kMemcached) {
        KeepFirst(client_tx, e.id, e.t_ns);
      } else if (auto it = id_by_seq.find(e.seq); it != id_by_seq.end()) {
        KeepFirst(client_tx, it->second, e.t_ns);
      }
    }
  }
  for (const ConnEvents& b : in.backend) {
    std::unordered_map<uint64_t, uint64_t> id_by_seq;
    for (const MsgEvent& e : b.tx) {
      KeepFirst(backend_tx, e.id, e.t_ns);
      id_by_seq.emplace(e.seq, e.id);
    }
    for (const MsgEvent& e : b.rx) {
      if (in.framing == Framing::kMemcached) {
        KeepFirst(backend_rx, e.id, e.t_ns);
      } else if (auto it = id_by_seq.find(e.seq); it != id_by_seq.end()) {
        KeepFirst(backend_rx, it->second, e.t_ns);
      }
    }
  }

  std::vector<StageSample> out;
  out.reserve(in.records.size());
  *unattributed = 0;
  for (const ReqRecord& r : in.records) {
    const uint64_t id = WireId(in.framing, r.id);
    const auto t_in = ingest.find(id);
    const auto t_out = client_tx.find(id);
    if (r.sent_ns == 0 || t_in == ingest.end() || t_out == client_tx.end()) {
      ++*unattributed;
      continue;
    }
    StageSample s;
    s.id = r.id;
    s.latency = static_cast<int64_t>(r.done_ns - r.sched_ns);
    s.send_lag = static_cast<int64_t>(r.sent_ns - r.sched_ns);
    s.ingest_wait = static_cast<int64_t>(t_in->second) - static_cast<int64_t>(r.sent_ns);
    s.egress_wait = static_cast<int64_t>(r.done_ns) - static_cast<int64_t>(t_out->second);
    const auto t_btx = backend_tx.find(id);
    const auto t_brx = backend_rx.find(id);
    if (t_btx != backend_tx.end() && t_brx != backend_rx.end()) {
      s.dispatch = static_cast<int64_t>(t_btx->second) - static_cast<int64_t>(t_in->second);
      s.backend = static_cast<int64_t>(t_brx->second) - static_cast<int64_t>(t_btx->second);
      s.reply = static_cast<int64_t>(t_out->second) - static_cast<int64_t>(t_brx->second);
    } else if (t_btx == backend_tx.end() && t_brx == backend_rx.end()) {
      s.hit = true;
      s.hit_ns = static_cast<int64_t>(t_out->second) - static_cast<int64_t>(t_in->second);
    } else {
      ++*unattributed;
      continue;
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace perfbench
