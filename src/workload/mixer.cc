#include "workload/mixer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <queue>

namespace insider::wl {

std::vector<TaggedRequest> Merge(
    std::span<const std::span<const IoRequest>> streams) {
  struct Head {
    SimTime time;
    std::size_t source;
    std::size_t index;
  };
  auto later = [](const Head& a, const Head& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.source != b.source) return a.source > b.source;
    return a.index > b.index;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heap(later);

  std::size_t total = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    total += streams[s].size();
    if (!streams[s].empty()) {
      heap.push({streams[s][0].time, s, 0});
    }
  }

  std::vector<TaggedRequest> out;
  out.reserve(total);
  while (!heap.empty()) {
    Head h = heap.top();
    heap.pop();
    out.push_back({streams[h.source][h.index], h.source});
    std::size_t next = h.index + 1;
    if (next < streams[h.source].size()) {
      assert(streams[h.source][next].time >= h.time &&
             "input streams must be time-sorted");
      heap.push({streams[h.source][next].time, h.source, next});
    }
  }
  return out;
}

std::vector<TaggedRequest> Merge2(std::span<const IoRequest> a,
                                  std::span<const IoRequest> b) {
  std::array<std::span<const IoRequest>, 2> streams{a, b};
  return Merge(streams);
}

}  // namespace insider::wl
