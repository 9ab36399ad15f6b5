// The FTL's per-page id tables at firmware width.
//
// A page-level FTL keeps one 4-byte mapping entry per page (paper Table
// III prices its entries the same way). L2P and P2L store 32-bit page ids:
// PPAs, LBAs and, in a retained page's P2L slot, the id of the
// recovery-queue entry guarding it. Every API outside this table stays
// 64-bit; Get and Set are the one place ids change width. All-ones means
// "no id" at both widths (nand::kInvalidPpa, kInvalidLba), so the largest
// storable id is 2^32 - 2 and nand::ValidateGeometry rejects devices whose
// page ids would not fit.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/io.h"
#include "common/lazy_table.h"
#include "nand/geometry.h"

namespace insider::ftl {

using PageId = std::uint32_t;
inline constexpr PageId kNoPageId = 0xFFFF'FFFFu;
/// The largest id a 32-bit slot can hold besides "no id".
inline constexpr std::uint64_t kMaxPageId = kNoPageId - 1;

static_assert(nand::kInvalidPpa == ~std::uint64_t{0} &&
                  kInvalidLba == ~std::uint64_t{0},
              "the invalid PPA and LBA must narrow to kNoPageId");

class PageIdTable {
 public:
  /// Reset to `size` slots that all read as no id.
  void Assign(std::size_t size) { table_.Assign(size, kNoPageId); }

  /// The stored id, widened; an empty slot reads as all-ones.
  std::uint64_t Get(std::size_t i) const {
    const PageId id = table_.Get(i);
    return id == kNoPageId ? ~std::uint64_t{0} : id;
  }

  /// Store `id` (all-ones clears the slot).
  void Set(std::size_t i, std::uint64_t id) {
    assert((id == ~std::uint64_t{0} || id <= kMaxPageId) &&
           "page id does not fit 32 bits");
    table_.Set(i, static_cast<PageId>(id));
  }

  PageIdTable Clone() const {
    PageIdTable copy;
    copy.table_ = table_.Clone();
    return copy;
  }
  void CloneFrom(const PageIdTable& other) { table_.CloneFrom(other.table_); }

  std::uint64_t ResidentBytes() const { return table_.ResidentBytes(); }

 private:
  common::LazyTable<PageId> table_;
};

}  // namespace insider::ftl
