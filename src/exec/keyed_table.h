// KeyedHashTable: the executor's one hash table (DESIGN.md §6.5). It maps
// the key columns of a row to a dense uint32_t id, assigned in first-seen
// order; the operators keep their per-key payload in vectors indexed by id.
//
// Key format, per column: 1 null byte; when valid, 8 raw bytes for numeric
// physical types or varint length + bytes for strings. Equal encodings mean
// equal keys with NULL == NULL (grouping semantics); joins, where NULL never
// matches, skip rows for which AnyNull holds. Storage is one open-addressing
// slot array and a key arena; every buffer grows to a power of two picked
// from its size alone, so ByteSize() does not depend on key arrival order.
#ifndef FUSIONDB_EXEC_KEYED_TABLE_H_
#define FUSIONDB_EXEC_KEYED_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/chunk.h"

namespace fusiondb::internal {

class KeyedHashTable {
 public:
  static constexpr uint32_t kNoId = UINT32_MAX;

  struct Insertion {
    uint32_t id;
    bool inserted;  // the key was not in the table before
  };

  /// True when any key column is NULL at `row`.
  static bool AnyNull(const std::vector<const Column*>& columns, size_t row);

  /// The id of row `row`'s key, inserting the key when it is new.
  Insertion Insert(const std::vector<const Column*>& columns, size_t row) {
    return InsertKey(Encode(columns, row));
  }
  /// The id of row `row`'s key, or kNoId. Encodes into the table's key
  /// buffer, so concurrent Finds on one table are not allowed.
  uint32_t Find(const std::vector<const Column*>& columns, size_t row);
  /// Inserts an already-encoded key (another table's Key()).
  Insertion InsertKey(std::string_view key);

  std::string_view Key(uint32_t id) const {
    return {arena_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }
  /// Decodes key `id` and appends its values to columns [0, width) of `out`.
  void AppendKey(uint32_t id, size_t width, std::vector<Column>* out) const;

  uint32_t size() const { return static_cast<uint32_t>(offsets_.size() - 1); }

  /// Bytes allocated by the slot array, key arena and key offsets (the
  /// one-key encode buffer excluded).
  int64_t ByteSize() const;

 private:
  struct Slot {
    uint32_t hash;
    uint32_t id;  // kNoId: empty
  };

  const std::string& Encode(const std::vector<const Column*>& columns,
                            size_t row);
  /// Index of the slot holding `key`, or of the empty slot ending its probe.
  size_t Probe(std::string_view key, uint32_t hash) const;
  void Grow();

  std::vector<Slot> slots_;
  std::vector<char> arena_;
  std::vector<uint32_t> offsets_{0};  // key i: arena_[offsets_[i], [i + 1])
  std::string key_;                   // encode buffer
};

/// The key columns `indexes` of `chunk`, as the table's column view.
inline std::vector<const Column*> KeyColumns(const Chunk& chunk,
                                             const std::vector<int>& indexes) {
  std::vector<const Column*> cols;
  cols.reserve(indexes.size());
  for (int i : indexes) cols.push_back(&chunk.columns[i]);
  return cols;
}

}  // namespace fusiondb::internal

#endif  // FUSIONDB_EXEC_KEYED_TABLE_H_
