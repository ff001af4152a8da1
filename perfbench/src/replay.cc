#include "replay.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "lang/compile.h"
#include "lang/lower.h"
#include "proto/http.h"
#include "proto/memcached.h"
#include "rng.h"
#include "runtime/channel.h"
#include "runtime/state_store.h"
#include "services/dsl_service.h"
#include "wire.h"

namespace perfbench {
namespace {

using flick::BufferChain;
using flick::BufferPool;

constexpr int kPasses = 9;

// Median over passes of (pass time / messages in the pass). `pass` returns
// the nanoseconds it spent on the timed work.
double MedianPerMsg(size_t messages, const std::function<uint64_t()>& pass) {
  if (messages == 0) {
    return 0;
  }
  std::vector<double> per_msg;
  for (int i = 0; i < kPasses; ++i) {
    per_msg.push_back(static_cast<double>(pass()) / static_cast<double>(messages));
  }
  std::nth_element(per_msg.begin(), per_msg.begin() + kPasses / 2, per_msg.end());
  return per_msg[kPasses / 2];
}

// Parses every whole record of `bytes` with `unit`.
std::vector<flick::grammar::Message> ParseAll(const std::string& bytes,
                                              const flick::grammar::Unit& unit,
                                              BufferPool* pool) {
  std::vector<flick::grammar::Message> msgs;
  BufferChain chain(pool);
  chain.Append(bytes);
  flick::grammar::UnitParser parser(&unit);
  for (;;) {
    flick::grammar::Message msg;
    if (parser.Feed(chain, &msg) != flick::grammar::ParseStatus::kDone) {
      break;
    }
    msgs.push_back(std::move(msg));
  }
  return msgs;
}

}  // namespace

void ReplayGrammar(const std::string& bytes, const flick::grammar::Unit& unit,
                   ReplayTimings* out) {
  BufferPool pool(1024, 16 * 1024);
  std::vector<flick::grammar::Message> msgs = ParseAll(bytes, unit, &pool);
  out->grammar_parse_ns = MedianPerMsg(msgs.size(), [&] {
    BufferChain chain(&pool);
    chain.Append(bytes);
    flick::grammar::UnitParser parser(&unit);
    flick::grammar::Message msg;
    const uint64_t t0 = NowNs();
    while (parser.Feed(chain, &msg) == flick::grammar::ParseStatus::kDone) {
    }
    return NowNs() - t0;
  });
  flick::grammar::UnitSerializer serializer(&unit);
  out->grammar_serialize_ns = MedianPerMsg(msgs.size(), [&] {
    BufferChain chain(&pool);
    const uint64_t t0 = NowNs();
    for (flick::grammar::Message& m : msgs) {
      (void)serializer.Serialize(m, chain);
      if (chain.readable() > 512 * 1024) {
        chain.Clear();
      }
    }
    return NowNs() - t0;
  });
}

void ReplayHttp(const std::string& bytes, ReplayTimings* out) {
  BufferPool pool(1024, 16 * 1024);
  std::vector<flick::proto::HttpMessage> msgs;
  {
    BufferChain chain(&pool);
    chain.Append(bytes);
    flick::proto::HttpParser parser(flick::proto::HttpParser::Mode::kResponse);
    flick::proto::HttpMessage msg;
    while (parser.Feed(chain, &msg) == flick::grammar::ParseStatus::kDone) {
      msgs.push_back(msg);
    }
  }
  out->http_parse_ns = MedianPerMsg(msgs.size(), [&] {
    BufferChain chain(&pool);
    chain.Append(bytes);
    flick::proto::HttpParser parser(flick::proto::HttpParser::Mode::kResponse);
    flick::proto::HttpMessage msg;
    const uint64_t t0 = NowNs();
    while (parser.Feed(chain, &msg) == flick::grammar::ParseStatus::kDone) {
    }
    return NowNs() - t0;
  });
  std::string wire;
  out->http_serialize_ns = MedianPerMsg(msgs.size(), [&] {
    const uint64_t t0 = NowNs();
    for (const flick::proto::HttpMessage& m : msgs) {
      wire.clear();
      flick::proto::SerializeResponse(m, &wire);
    }
    return NowNs() - t0;
  });
}

void ReplayDispatch(const std::string& bytes, size_t backends, ReplayTimings* out) {
  using namespace flick;
  auto compiled = lang::CompileSource(services::kMemcachedRouterSource);
  if (!compiled.ok()) {
    return;
  }
  std::shared_ptr<lang::CompiledProgram> program = std::move(compiled).value();
  const lang::ProcDecl* proc = program->ast.FindProc("memcached");
  const grammar::Unit* unit = program->UnitFor("cmd");
  if (proc == nullptr || unit == nullptr) {
    return;
  }
  BufferPool pool(1024, 16 * 1024);
  std::vector<grammar::Message> msgs = ParseAll(bytes, *unit, &pool);

  lang::ProcWiring wiring;
  wiring.endpoints["client"].inputs = {0};
  wiring.endpoints["client"].outputs = {0};
  for (size_t b = 0; b < backends; ++b) {
    wiring.endpoints["backends"].inputs.push_back(1 + b);
    wiring.endpoints["backends"].outputs.push_back(1 + b);
  }
  constexpr size_t kBatch = 32;
  std::vector<std::unique_ptr<runtime::Channel>> channels;
  std::vector<runtime::Channel*> outputs;
  for (size_t i = 0; i <= backends; ++i) {
    channels.push_back(std::make_unique<runtime::Channel>(kBatch * 2));
    outputs.push_back(channels.back().get());
  }
  runtime::MsgPool msg_pool(kBatch * 4);

  auto time_handler = [&](runtime::ComputeTask::Handler handler) {
    return MedianPerMsg(msgs.size(), [&] {
      uint64_t spent = 0;
      std::vector<runtime::MsgRef> batch;
      for (size_t i = 0; i < msgs.size(); i += kBatch) {
        const size_t end = std::min(msgs.size(), i + kBatch);
        batch.clear();
        for (size_t j = i; j < end; ++j) {
          runtime::MsgRef m = msg_pool.Acquire();
          m->kind = runtime::Msg::Kind::kGrammar;
          m->gmsg = msgs[j];
          batch.push_back(std::move(m));
        }
        runtime::EmitContext emit(&outputs, &msg_pool);
        const uint64_t t0 = NowNs();
        for (runtime::MsgRef& m : batch) {
          (void)handler(*m, 0, emit);
        }
        spent += NowNs() - t0;
        batch.clear();
        for (runtime::Channel* ch : outputs) {
          while (ch->TryPop()) {
          }
        }
      }
      return spent;
    });
  };
  runtime::StateStore state;
  std::atomic<uint64_t> lowered{0};
  std::atomic<uint64_t> fallbacks{0};
  out->lowered_ns = time_handler(lang::MakeLoweredProcHandler(program, proc, wiring, &state,
                                                              "memcached", {&lowered, &fallbacks}));
  out->interp_ns = time_handler(lang::MakeProcHandler(program, proc, wiring, &state, "memcached"));
}

void ReplayState(const std::string& bytes, ReplayTimings* out) {
  BufferPool pool(1024, 16 * 1024);
  std::vector<flick::grammar::Message> msgs = ParseAll(bytes, flick::proto::MemcachedUnit(), &pool);
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (flick::grammar::Message& m : msgs) {
    flick::proto::MemcachedCommand cmd(&m);
    uint32_t key = 0;
    if (ParseKeyName(cmd.key(), &key)) {
      keys.emplace_back(cmd.key());
      values.push_back(ValueFor(key, 1));
    }
  }
  flick::runtime::StateStore store;
  const std::string dict = "memcached-cache";
  out->state_put_ns = MedianPerMsg(keys.size(), [&] {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < keys.size(); ++i) {
      store.Put(dict, keys[i], values[i]);
    }
    return NowNs() - t0;
  });
  size_t found = 0;
  out->state_get_ns = MedianPerMsg(keys.size(), [&] {
    const uint64_t t0 = NowNs();
    for (const std::string& k : keys) {
      found += store.Get(dict, k).has_value() ? 1 : 0;
    }
    return NowNs() - t0;
  });
  (void)found;
}

}  // namespace perfbench
