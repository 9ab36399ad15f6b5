// Merging several workload request streams into the single time-ordered
// sequence the SSD observes, with source tags preserved for ground truth.
#pragma once

#include <span>
#include <vector>

#include "common/io.h"

namespace insider::wl {

struct TaggedRequest {
  IoRequest request;
  std::size_t source = 0;  ///< index into the merged stream list
};

/// Stable k-way merge by request time (ties broken by source order). Each
/// input must already be time-sorted.
std::vector<TaggedRequest> Merge(
    std::span<const std::span<const IoRequest>> streams);

/// Convenience for the common two-stream (background app + ransomware) case.
std::vector<TaggedRequest> Merge2(std::span<const IoRequest> a,
                                  std::span<const IoRequest> b);

}  // namespace insider::wl
