// Fleet parallelism: independent devices simulated side by side.
//
// Each device is internally deterministic and shares no state with the
// others, so running them on separate threads changes wall time only. One
// device's command path always runs on one thread.
//
// This file and parallel_for.cc are the only places in the tree allowed to
// name std::thread/std::mutex/std::atomic (insider_lint rule raw-thread).
#pragma once

#include <cstddef>
#include <functional>

namespace insider::io {

/// Run `fn(i)` for i in [0, count) on up to `threads` workers (0/1 = run
/// inline). Tasks must be independent; completion order is unspecified but
/// each task runs exactly once. Used for fleet-parallel device simulation.
void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

/// Hardware thread budget (std::thread::hardware_concurrency, with the
/// 0-means-unknown quirk folded to 1). ParallelFor clamps to this; benches
/// report it so scaling numbers are interpretable on small machines.
std::size_t HardwareThreads();

}  // namespace insider::io
