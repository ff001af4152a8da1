#include "wire.h"

#include <cstdio>
#include <cstring>
#include <strings.h>

#include "rng.h"

namespace perfbench {
namespace {

void PutBe(std::string* out, uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t GetBe(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

bool ParseDigits(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 19) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

constexpr size_t kMaxHttpHeader = 16 * 1024;

}  // namespace

std::string KeyName(uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key:%06u", key % 1000000u);
  return buf;
}

bool ParseKeyName(std::string_view s, uint32_t* key) {
  uint64_t v = 0;
  if (s.size() != 10 || s.substr(0, 4) != "key:" || !ParseDigits(s.substr(4), &v)) {
    return false;
  }
  *key = static_cast<uint32_t>(v);
  return true;
}

std::string ValueFor(uint32_t key, uint32_t version) {
  // "k000123v0000000007:" + filler that depends on both, 32 bytes total.
  char head[32];
  const int n = std::snprintf(head, sizeof(head), "k%06uv%010u:", key % 1000000u, version);
  std::string value(head, static_cast<size_t>(n));
  const char fill = static_cast<char>('a' + (key * 7 + version) % 26);
  value.resize(kValueSize, fill);
  return value;
}

bool ParseValue(std::string_view value, uint32_t key, uint32_t* version) {
  if (value.size() != kValueSize || value[0] != 'k' || value[7] != 'v') {
    return false;
  }
  uint64_t v = 0;
  if (!ParseDigits(value.substr(8, 10), &v) || v > UINT32_MAX) {
    return false;
  }
  if (value != ValueFor(key, static_cast<uint32_t>(v))) {
    return false;
  }
  *version = static_cast<uint32_t>(v);
  return true;
}

void AppendMcRequest(std::string* out, uint8_t opcode, std::string_view key,
                     std::string_view value, uint32_t opaque) {
  out->push_back(static_cast<char>(0x80));
  out->push_back(static_cast<char>(opcode));
  PutBe(out, key.size(), 2);
  out->push_back(0);                  // extras length
  out->push_back(0);                  // data type
  PutBe(out, 0, 2);                   // vbucket
  PutBe(out, key.size() + value.size(), 4);
  PutBe(out, opaque, 4);
  PutBe(out, 0, 8);                   // cas
  out->append(key);
  out->append(value);
}

int FrameMc(const char* data, size_t len, McFrame* out) {
  if (len < kMcHeaderSize) {
    return 0;
  }
  const uint8_t magic = static_cast<uint8_t>(data[0]);
  if (magic != 0x80 && magic != 0x81) {
    return -1;
  }
  const size_t key_len = GetBe(data + 2, 2);
  const size_t extras_len = static_cast<uint8_t>(data[4]);
  const size_t body_len = GetBe(data + 8, 4);
  if (key_len + extras_len > body_len) {
    return -1;
  }
  if (len < kMcHeaderSize + body_len) {
    return 0;
  }
  out->magic = magic;
  out->opcode = static_cast<uint8_t>(data[1]);
  out->status = static_cast<uint16_t>(GetBe(data + 6, 2));
  out->opaque = static_cast<uint32_t>(GetBe(data + 12, 4));
  const char* body = data + kMcHeaderSize;
  out->key = std::string_view(body + extras_len, key_len);
  out->value = std::string_view(body + extras_len + key_len, body_len - extras_len - key_len);
  out->size = kMcHeaderSize + body_len;
  return 1;
}

void AppendHttpGet(std::string* out, uint64_t id) {
  char line[64];
  const int n = std::snprintf(line, sizeof(line), "GET /obj/%llu HTTP/1.1\r\n",
                              static_cast<unsigned long long>(id));
  out->append(line, static_cast<size_t>(n));
  out->append("Host: bench\r\n\r\n");
}

std::string HttpBody(uint64_t seed, int backend, size_t size) {
  SplitMix64 rng(seed * 1000003u + static_cast<uint64_t>(backend) + 1);
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string body(size, ' ');
  for (size_t i = 0; i < size; ++i) {
    body[i] = kAlphabet[rng.Next() % (sizeof(kAlphabet) - 1)];
  }
  return body;
}

int FrameHttp(const char* data, size_t len, HttpFrame* out) {
  const size_t scan = len < kMaxHttpHeader ? len : kMaxHttpHeader;
  const void* end = memmem(data, scan, "\r\n\r\n", 4);
  if (end == nullptr) {
    return scan == kMaxHttpHeader ? -1 : 0;
  }
  const size_t header_size = static_cast<size_t>(static_cast<const char*>(end) - data) + 4;
  std::string_view head(data, header_size);
  const size_t eol = head.find("\r\n");
  std::string_view first = head.substr(0, eol);
  *out = HttpFrame{};
  if (first.substr(0, 5) == "HTTP/") {
    const size_t sp = first.find(' ');
    uint64_t status = 0;
    if (sp == std::string_view::npos || !ParseDigits(first.substr(sp + 1, 3), &status)) {
      return -1;
    }
    out->status = static_cast<int>(status);
  } else {
    const size_t sp1 = first.find(' ');
    const size_t sp2 = first.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      return -1;
    }
    std::string_view target = first.substr(sp1 + 1, sp2 - sp1 - 1);
    uint64_t id = 0;
    if (target.substr(0, 5) == "/obj/" && ParseDigits(target.substr(5), &id)) {
      out->target_id = id;
    }
  }
  // Content-Length, case-insensitively; absent means no body.
  size_t pos = eol + 2;
  while (pos < header_size - 2) {
    const size_t next = head.find("\r\n", pos);
    std::string_view line = head.substr(pos, next - pos);
    constexpr std::string_view kName = "content-length:";
    if (line.size() > kName.size() && strncasecmp(line.data(), kName.data(), kName.size()) == 0) {
      std::string_view v = line.substr(kName.size());
      while (!v.empty() && v.front() == ' ') {
        v.remove_prefix(1);
      }
      uint64_t cl = 0;
      if (!ParseDigits(v, &cl) || cl > (uint64_t{1} << 30)) {
        return -1;
      }
      out->content_length = cl;
    }
    pos = next + 2;
  }
  out->header_size = header_size;
  out->size = header_size + out->content_length;
  return len >= out->size ? 1 : 0;
}

}  // namespace perfbench
