// Client-side wire formats of the benchmark: memcached binary requests and
// replies, HTTP/1.1 keep-alive GETs and responses, and the deterministic
// keys, values and bodies the generator checks replies against.
//
// These are written independently of the program under test (src/proto) so
// that the generator and the tracing decorator never run the code they
// measure; the self-tests pin them byte-for-byte against src/proto.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

inline constexpr size_t kMcHeaderSize = 24;
inline constexpr uint8_t kMcGet = 0x00;
inline constexpr uint8_t kMcSet = 0x01;
inline constexpr uint8_t kMcGetK = 0x0c;
inline constexpr size_t kValueSize = 32;

// "key:000123" — fixed 10 bytes so every request of a workload is one size.
std::string KeyName(uint32_t key);
// Parses KeyName's format back; false when `s` is not one.
bool ParseKeyName(std::string_view s, uint32_t* key);

// The 32-byte value stored under `key` at `version`: the key and version are
// spelled out, so a reply proves which key and which write it came from.
std::string ValueFor(uint32_t key, uint32_t version);
// Recovers the version from a value; false when the value is not exactly
// ValueFor(key, version) for some version.
bool ParseValue(std::string_view value, uint32_t key, uint32_t* version);

// Appends one binary-protocol request (no extras, cas 0) to `out`.
void AppendMcRequest(std::string* out, uint8_t opcode, std::string_view key,
                     std::string_view value, uint32_t opaque);

struct McFrame {
  uint8_t magic = 0;
  uint8_t opcode = 0;
  uint16_t status = 0;
  uint32_t opaque = 0;
  std::string_view key;
  std::string_view value;
  size_t size = 0;  // whole record on the wire
};
// Frames one record at the front of [data, data+len). Returns 1 when a whole
// record is there (filled into `out`), 0 when more bytes are needed and -1
// when the header is malformed.
int FrameMc(const char* data, size_t len, McFrame* out);

// A keep-alive GET whose target carries the request id: "/obj/<id>".
void AppendHttpGet(std::string* out, uint64_t id);

// The 16 KiB body HTTP backend `backend` serves, derived from `seed`.
std::string HttpBody(uint64_t seed, int backend, size_t size);

struct HttpFrame {
  int status = 0;
  size_t header_size = 0;
  size_t content_length = 0;
  size_t size = 0;   // header + body
  uint64_t target_id = 0;  // requests: the id in "/obj/<id>" (0 if absent)
};
// Frames one HTTP message (request or response, Content-Length bodies only)
// at the front of the buffer. Same return contract as FrameMc.
int FrameHttp(const char* data, size_t len, HttpFrame* out);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
