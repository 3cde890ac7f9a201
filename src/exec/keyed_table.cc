#include "exec/keyed_table.h"

#include <bit>
#include <cstring>
#include <functional>

#include "common/check.h"

namespace fusiondb::internal {

namespace {

uint32_t HashKey(std::string_view key) {
  uint64_t h = std::hash<std::string_view>{}(key);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void EncodeColumn(const Column& col, size_t row, std::string* out) {
  if (col.IsNull(row)) {
    out->push_back('\0');
    return;
  }
  out->push_back('\1');
  switch (PhysicalTypeOf(col.type())) {
    case PhysicalType::kInt: {
      int64_t v = col.IntAt(row);
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case PhysicalType::kDouble: {
      double v = col.DoubleAt(row);
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case PhysicalType::kString: {
      const std::string& s = col.StringAt(row);
      uint64_t len = s.size();
      for (; len >= 0x80; len >>= 7) {
        out->push_back(static_cast<char>((len & 0x7F) | 0x80));
      }
      out->push_back(static_cast<char>(len));
      out->append(s);
      break;
    }
  }
}

}  // namespace

bool KeyedHashTable::AnyNull(const std::vector<const Column*>& columns,
                             size_t row) {
  for (const Column* col : columns) {
    if (col->IsNull(row)) return true;
  }
  return false;
}

const std::string& KeyedHashTable::Encode(
    const std::vector<const Column*>& columns, size_t row) {
  key_.clear();
  for (const Column* col : columns) EncodeColumn(*col, row, &key_);
  return key_;
}

uint32_t KeyedHashTable::Find(const std::vector<const Column*>& columns,
                              size_t row) {
  if (slots_.empty()) return kNoId;
  const std::string& key = Encode(columns, row);
  return slots_[Probe(key, HashKey(key))].id;
}

KeyedHashTable::Insertion KeyedHashTable::InsertKey(std::string_view key) {
  if (slots_.empty()) Grow();
  uint32_t hash = HashKey(key);
  size_t i = Probe(key, hash);
  if (slots_[i].id != kNoId) return {slots_[i].id, false};
  // Grow only when a key is added, so the capacity depends on the number of
  // keys and not on how many lookups came before.
  if ((static_cast<size_t>(size()) + 1) * 4 > slots_.size() * 3) {
    Grow();
    i = Probe(key, hash);
  }
  size_t end = arena_.size() + key.size();
  FUSIONDB_CHECK(end <= UINT32_MAX, "key arena exceeds 4 GiB");
  if (end > arena_.capacity()) arena_.reserve(std::bit_ceil(end));
  arena_.insert(arena_.end(), key.begin(), key.end());
  slots_[i] = {hash, size()};
  offsets_.push_back(static_cast<uint32_t>(end));
  return {slots_[i].id, true};
}

size_t KeyedHashTable::Probe(std::string_view key, uint32_t hash) const {
  size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.id == kNoId || (s.hash == hash && Key(s.id) == key)) return i;
  }
}

void KeyedHashTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 8 : old.size() * 2, Slot{0, kNoId});
  size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNoId) continue;
    size_t i = s.hash & mask;
    while (slots_[i].id != kNoId) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void KeyedHashTable::AppendKey(uint32_t id, size_t width,
                               std::vector<Column>* out) const {
  const char* p = arena_.data() + offsets_[id];
  for (size_t c = 0; c < width; ++c) {
    Column& col = (*out)[c];
    if (*p++ == '\0') {
      col.AppendNull();
      continue;
    }
    int64_t bits;
    switch (PhysicalTypeOf(col.type())) {
      case PhysicalType::kInt:
        std::memcpy(&bits, p, sizeof(bits));
        p += sizeof(bits);
        col.AppendInt(bits);
        break;
      case PhysicalType::kDouble:
        std::memcpy(&bits, p, sizeof(bits));
        p += sizeof(bits);
        col.AppendDouble(std::bit_cast<double>(bits));
        break;
      case PhysicalType::kString: {
        uint64_t len = 0;
        for (int shift = 0;; shift += 7) {
          uint8_t b = static_cast<uint8_t>(*p++);
          len |= static_cast<uint64_t>(b & 0x7F) << shift;
          if ((b & 0x80) == 0) break;
        }
        col.AppendString(std::string(p, len));
        p += len;
        break;
      }
    }
  }
}

int64_t KeyedHashTable::ByteSize() const {
  return static_cast<int64_t>(slots_.capacity() * sizeof(Slot) +
                              arena_.capacity() +
                              offsets_.capacity() * sizeof(uint32_t));
}

}  // namespace fusiondb::internal
