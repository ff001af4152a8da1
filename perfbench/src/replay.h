// Per-message costs of single layers, measured by replaying bytes captured
// at the TracedTransport through those layers' public functions: the grammar
// parser and serializer, the proto HTTP parser and serializer, lowered and
// interpreted dispatch of Listing 1, and StateStore get/put.
//
// Each figure is the median over several passes of one pass's time divided by
// the messages in it.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>

namespace flick::grammar {
class Unit;
}

namespace perfbench {

struct ReplayTimings {
  double grammar_parse_ns = 0;
  double grammar_serialize_ns = 0;
  double http_parse_ns = 0;
  double http_serialize_ns = 0;
  double lowered_ns = 0;
  double interp_ns = 0;
  double state_get_ns = 0;
  double state_put_ns = 0;
};

// A stream of memcached records through UnitParser::Feed and UnitSerializer.
void ReplayGrammar(const std::string& bytes, const flick::grammar::Unit& unit, ReplayTimings* out);
// A stream of HTTP responses through HttpParser and SerializeResponse.
void ReplayHttp(const std::string& bytes, ReplayTimings* out);
// Client requests through Listing 1's proc, lowered and interpreted.
void ReplayDispatch(const std::string& bytes, size_t backends, ReplayTimings* out);
// The keys of a request stream through StateStore Put and Get.
void ReplayState(const std::string& bytes, ReplayTimings* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
