#include "common/fingerprint.h"

#include <cstring>

#include "common/str.h"

namespace sweepmv {

void StateHasher::Note(const char* tag, uint64_t value) {
  if (!keep_text_) return;
  text_ += tag;
  text_ += StrFormat("=%llu\n", static_cast<unsigned long long>(value));
}

void StateHasher::Bytes(const char* tag, const void* data, size_t size) {
  U64(tag, static_cast<uint64_t>(size));
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, bytes + i, 8);
    Mix(chunk);
  }
  if (i < size) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, bytes + i, size - i);
    Mix(chunk);
  }
  if (keep_text_) {
    // The size line above already carries the tag; append the payload as
    // hex so dump diffs show content, not just lengths.
    text_ += "  bytes:";
    for (size_t k = 0; k < size; ++k) {
      text_ += StrFormat("%02x", static_cast<unsigned>(bytes[k]));
    }
    text_ += "\n";
  }
}

}  // namespace sweepmv
