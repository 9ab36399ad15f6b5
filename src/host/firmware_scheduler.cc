#include "host/firmware_scheduler.h"

#include <cassert>
#include <utility>

namespace insider::host {

void FirmwareScheduler::Push(TaskId id, SimTime due) {
  heap_.push(HeapEntry{due, next_seq_++, id});
}

FirmwareScheduler::TaskId FirmwareScheduler::Schedule(std::string name,
                                                      SimTime due, TaskFn fn) {
  assert(fn);
  TaskId id = next_id_++;
  tasks_.emplace(id, Task{std::move(name), std::move(fn), due});
  Push(id, due);
  ++stats_.scheduled;
  return id;
}

bool FirmwareScheduler::Cancel(TaskId id) {
  // Lazy deletion: the heap entry stays behind and is skipped when popped.
  if (tasks_.erase(id) == 0) return false;
  ++stats_.cancelled;
  return true;
}

bool FirmwareScheduler::Reschedule(TaskId id, SimTime due) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return false;
  it->second.due = due;
  Push(id, due);  // the old heap entry goes stale and is skipped
  return true;
}

std::optional<SimTime> FirmwareScheduler::NextDue() const {
  if (tasks_.empty()) return std::nullopt;
  SimTime earliest = kNever;
  for (const auto& [id, task] : tasks_) {
    if (task.due < earliest) earliest = task.due;
  }
  return earliest;
}

std::size_t FirmwareScheduler::RunUntil(SimTime now) {
  std::size_t runs = 0;
  while (!heap_.empty()) {
    HeapEntry top = heap_.top();
    // Nothing in the heap is due yet. A stale entry at the top stays until
    // it comes due; it hides nothing, since every live entry is as late.
    if (top.due > now) break;
    auto it = tasks_.find(top.id);
    heap_.pop();
    // Cancelled task or superseded due time: drop the stale entry.
    if (it == tasks_.end() || it->second.due != top.due) continue;
    obs::EmitInstant(tracer_, it->second.name.c_str(), "fw", 0, top.due,
                     static_cast<std::int64_t>(top.id), "task");
    // Run at the task's own due time, not the drain horizon: a periodic
    // task catching up through a long gap sees each period's timestamp.
    SimTime next = it->second.fn(top.due);
    ++runs;
    ++stats_.runs;
    // The callback may have cancelled or rescheduled its own task.
    it = tasks_.find(top.id);
    if (it == tasks_.end()) continue;
    if (it->second.due != top.due) continue;  // rescheduled itself
    if (next == kNever) {
      tasks_.erase(it);
      continue;
    }
    assert(next > top.due && "a task must make progress in virtual time");
    it->second.due = next;
    Push(top.id, next);
  }
  return runs;
}

}  // namespace insider::host
