// Payload stored in one physical page.
//
// Workload-level experiments only care about *which* version of a logical
// block a page holds, so every page carries a cheap 64-bit stamp; the
// filesystem experiments additionally store real byte contents. Keeping the
// bytes optional lets multi-gigabyte traces run without allocating page
// buffers they never read.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/time.h"

namespace insider::nand {

/// Out-of-band (spare-area) metadata the FTL programs with every page, the
/// way real firmware tags each page so the mapping table can be rebuilt by
/// scanning flash after power loss. On media it is 24 bytes of the page's
/// OOB region: 8 B logical address, 8 B global write sequence whose top bit
/// is the tombstone flag, 8 B timestamp (see Block's page records).
struct PageOob {
  /// Logical address this page holds a version of; kInvalidLba (the
  /// default) marks a page written outside the FTL (raw NAND tests).
  std::uint64_t lba = static_cast<std::uint64_t>(-1);
  /// Global program sequence number — strictly increasing across the
  /// device's lifetime, so a flash scan can order versions of one LBA.
  /// Below 2^63: the media record keeps the tombstone flag in the top bit.
  std::uint64_t seq = 0;
  /// Virtual time of the *logical* write. GC relocation preserves it (the
  /// copy is the same version), which is how a rebuild tells a relocated
  /// ghost from a genuinely newer version.
  SimTime written_at = 0;
  /// Trim tombstone: this page carries no data — it records "lba was
  /// unmapped at written_at" so a post-power-loss OOB scan can replay the
  /// trim instead of resurrecting the trimmed version (FtlConfig::
  /// trim_tombstones). The page is born invalid and is never relocated.
  bool tombstone = false;

  friend bool operator==(const PageOob&, const PageOob&) = default;
};

/// One page's content without ownership: stamp and OOB by value, payload
/// bytes in place. A view read from NAND stays valid until the page's block
/// is erased; a view of a PageData, while that PageData lives. It is also
/// what the program entry points take, so a page copies from one block to
/// another (GC relocation) without an intermediate buffer.
struct PageView {
  std::uint64_t stamp = 0;
  PageOob oob = {};
  /// Optional real contents; empty for stamp-only pages.
  std::span<const std::byte> bytes = {};

  /// Payload equality, ignoring OOB — two pages hold the same version when
  /// stamp and contents match even if their program sequence differs (GC
  /// copies get fresh sequence numbers).
  bool SamePayload(const PageView& other) const {
    return stamp == other.stamp && std::ranges::equal(bytes, other.bytes);
  }

  friend bool operator==(const PageView& a, const PageView& b) {
    return a.oob == b.oob && a.SamePayload(b);
  }
};

/// An owned page: what a host write hands the FTL and an FTL read returns.
struct PageData {
  PageData() = default;
  /// Positional construction with the OOB defaulted, so the pervasive
  /// `{stamp, bytes}` literals predating the OOB area keep working.
  PageData(std::uint64_t stamp_in, std::vector<std::byte> bytes_in,
           PageOob oob_in = PageOob{})
      : stamp(stamp_in), bytes(std::move(bytes_in)), oob(oob_in) {}
  /// Deep copy of a view's content.
  explicit PageData(const PageView& view)
      : stamp(view.stamp), bytes(view.bytes.begin(), view.bytes.end()),
        oob(view.oob) {}

  /// Opaque version stamp chosen by the writer (the FTL passes through the
  /// host's stamp). Used by tests and the recovery checker to tell original
  /// content from ransomware-encrypted content.
  std::uint64_t stamp = 0;
  /// Optional real contents (page_size bytes when present).
  std::vector<std::byte> bytes;
  /// Spare-area metadata (filled by the FTL on program).
  PageOob oob;

  /// Views this page's content (valid while this PageData lives unchanged).
  /// Implicit, as std::string converts to std::string_view.
  operator PageView() const { return {stamp, oob, bytes}; }

  friend bool operator==(const PageData&, const PageData&) = default;
};

}  // namespace insider::nand
