#include "src/sched/scheduler.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/kernel/schedule_arbiter.h"
#include "src/snap/wire.h"

namespace cheriot {

void Scheduler::Admit(int thread_id) {
  GuestThread& t = T(thread_id);
  t.state = GuestThread::State::kReady;
  ready_[t.priority % kPriorities].push_back(thread_id);
}

void Scheduler::MakeReady(int thread_id) {
  GuestThread& t = T(thread_id);
  if (t.state == GuestThread::State::kExited) {
    return;
  }
  if (t.state == GuestThread::State::kReady ||
      t.state == GuestThread::State::kRunning) {
    // Already schedulable; ensure presence in a queue happens elsewhere.
  }
  // Remove from futex wait set if present.
  if (t.futex_addr != 0) {
    auto it = futex_waiters_.find(t.futex_addr);
    if (it != futex_waiters_.end()) {
      auto& q = it->second;
      q.erase(std::remove(q.begin(), q.end(), thread_id), q.end());
      if (q.empty()) {
        futex_waiters_.erase(it);
      }
    }
    t.futex_addr = 0;
  }
  if (t.multiwaiter_id >= 0) {
    multiwaiters_[t.multiwaiter_id].waiting_thread = -1;
    t.multiwaiter_id = -1;
  }
  t.wake_at = GuestThread::kNoDeadline;
  if (t.state != GuestThread::State::kReady &&
      t.state != GuestThread::State::kRunning) {
    t.state = GuestThread::State::kReady;
    ready_[t.priority % kPriorities].push_back(thread_id);
    for (obs::Observer* o : *observers_) {
      o->OnThreadWake(thread_id);
    }
  }
}

void Scheduler::MakeBlocked(int thread_id, Address futex_addr, Cycles wake_at) {
  GuestThread& t = T(thread_id);
  RemoveFromReady(thread_id);
  t.state = GuestThread::State::kBlocked;
  t.futex_addr = futex_addr;
  t.wake_at = wake_at;
  t.timed_out = false;
  t.block_seq = ++block_seq_counter_;
  if (futex_addr != 0) {
    futex_waiters_[futex_addr].push_back(thread_id);
    ++futex_waits_;
  }
  for (obs::Observer* o : *observers_) {
    o->OnThreadBlock(thread_id, futex_addr);
  }
}

void Scheduler::MakeSleeping(int thread_id, Cycles wake_at) {
  GuestThread& t = T(thread_id);
  RemoveFromReady(thread_id);
  t.state = GuestThread::State::kSleeping;
  t.futex_addr = 0;
  t.wake_at = wake_at;
  for (obs::Observer* o : *observers_) {
    o->OnThreadSleep(thread_id, wake_at);
  }
}

int Scheduler::PickNext() const {
  for (int p = kPriorities - 1; p >= 0; --p) {
    for (int id : ready_[p]) {
      if (T(id).state == GuestThread::State::kReady) {
        return id;
      }
    }
  }
  return -1;
}

void Scheduler::RoundRobin(int thread_id) {
  auto& q = ready_[T(thread_id).priority % kPriorities];
  auto it = std::find(q.begin(), q.end(), thread_id);
  if (it != q.end()) {
    q.erase(it);
    q.push_back(thread_id);
  }
}

void Scheduler::RemoveFromReady(int thread_id) {
  auto& q = ready_[T(thread_id).priority % kPriorities];
  q.erase(std::remove(q.begin(), q.end(), thread_id), q.end());
}

int Scheduler::FutexWake(Address addr, int count) {
  auto it = futex_waiters_.find(addr);
  int woken = 0;
  // Wake direct waiters first, FIFO in block_seq (the documented contract,
  // src/sync/sync.h). The arbiter may reorder WHICH waiter wakes first —
  // that models the wake racing with late arrivals — but the queue itself
  // must always be monotonic in park order.
  if (it != futex_waiters_.end()) {
    for (size_t i = 1; i < it->second.size(); ++i) {
      CHERIOT_CHECK(T(it->second[i - 1]).block_seq < T(it->second[i]).block_seq,
                    "futex wait queue must be FIFO in park order");
    }
    bool first_pop = true;
    while (woken < count && !it->second.empty()) {
      size_t pick = 0;
      if (first_pop && arbiter_ != nullptr && it->second.size() > 1) {
        // Decision point: which of the queued waiters observes the wake
        // first. Bounded to the four oldest to keep the branching factor
        // small; choice 0 is the FIFO default.
        const int n = static_cast<int>(std::min<size_t>(it->second.size(), 4));
        const int c = arbiter_->Choose(DecisionKind::kWakeOrder, addr, n);
        if (c > 0 && c < n) {
          pick = static_cast<size_t>(c);
        }
      }
      first_pop = false;
      const int id = it->second[pick];
      it->second.erase(it->second.begin() + static_cast<long>(pick));
      GuestThread& t = T(id);
      t.futex_addr = 0;
      t.timed_out = false;
      t.wake_at = GuestThread::kNoDeadline;
      if (t.state == GuestThread::State::kBlocked) {
        t.state = GuestThread::State::kReady;
        ready_[t.priority % kPriorities].push_back(id);
        for (obs::Observer* o : *observers_) {
          o->OnThreadWake(id);
        }
      }
      ++woken;
    }
    if (it->second.empty()) {
      futex_waiters_.erase(it);
    }
  }
  // Then multiwaiter waiters armed on this address, in slot order (slot ids
  // are assigned at arm time, so this too is creation-order FIFO).
  std::vector<size_t> eligible;
  for (size_t m = 0; m < multiwaiters_.size(); ++m) {
    const auto& mw = multiwaiters_[m];
    if (!mw.live || mw.waiting_thread < 0) {
      continue;
    }
    if (std::find(mw.addrs.begin(), mw.addrs.end(), addr) == mw.addrs.end()) {
      continue;
    }
    eligible.push_back(m);
  }
  if (arbiter_ != nullptr && eligible.size() > 1 && woken < count) {
    // Decision point: which armed multiwaiter completes first.
    const int n = static_cast<int>(std::min<size_t>(eligible.size(), 4));
    const int c = arbiter_->Choose(DecisionKind::kMultiwaiterOrder, addr, n);
    if (c > 0 && c < n) {
      std::rotate(eligible.begin(), eligible.begin() + c,
                  eligible.begin() + c + 1);
    }
  }
  for (size_t e = 0; e < eligible.size() && woken < count; ++e) {
    auto& mw = multiwaiters_[eligible[e]];
    if (mw.waiting_thread < 0) {
      continue;
    }
    const int id = mw.waiting_thread;
    mw.waiting_thread = -1;
    GuestThread& t = T(id);
    t.multiwaiter_id = -1;
    t.timed_out = false;
    t.wake_at = GuestThread::kNoDeadline;
    if (t.state == GuestThread::State::kBlocked) {
      t.state = GuestThread::State::kReady;
      ready_[t.priority % kPriorities].push_back(id);
      for (obs::Observer* o : *observers_) {
        o->OnThreadWake(id);
      }
    }
    ++woken;
  }
  return woken;
}

int Scheduler::MultiwaiterCreate(int max_events) {
  for (size_t i = 0; i < multiwaiters_.size(); ++i) {
    if (!multiwaiters_[i].live) {
      multiwaiters_[i] = {true, max_events, {}, -1};
      return static_cast<int>(i);
    }
  }
  multiwaiters_.push_back({true, max_events, {}, -1});
  return static_cast<int>(multiwaiters_.size() - 1);
}

Status Scheduler::MultiwaiterDestroy(int mw_id) {
  if (mw_id < 0 || mw_id >= static_cast<int>(multiwaiters_.size()) ||
      !multiwaiters_[mw_id].live) {
    return Status::kInvalidArgument;
  }
  if (multiwaiters_[mw_id].waiting_thread >= 0) {
    return Status::kBusy;
  }
  multiwaiters_[mw_id].live = false;
  return Status::kOk;
}

Status Scheduler::MultiwaiterArm(int mw_id, const std::vector<Address>& addrs) {
  if (mw_id < 0 || mw_id >= static_cast<int>(multiwaiters_.size()) ||
      !multiwaiters_[mw_id].live) {
    return Status::kInvalidArgument;
  }
  if (static_cast<int>(addrs.size()) > multiwaiters_[mw_id].max_events) {
    return Status::kOverflow;
  }
  multiwaiters_[mw_id].addrs = addrs;
  return Status::kOk;
}

void Scheduler::MultiwaiterDisarm(int mw_id) {
  if (mw_id >= 0 && mw_id < static_cast<int>(multiwaiters_.size())) {
    multiwaiters_[mw_id].addrs.clear();
    multiwaiters_[mw_id].waiting_thread = -1;
  }
}

const std::vector<Address>* Scheduler::MultiwaiterAddresses(int mw_id) const {
  if (mw_id < 0 || mw_id >= static_cast<int>(multiwaiters_.size()) ||
      !multiwaiters_[mw_id].live) {
    return nullptr;
  }
  return &multiwaiters_[mw_id].addrs;
}

void Scheduler::BlockOnMultiwaiter(int thread_id, int mw_id, Cycles wake_at) {
  GuestThread& t = T(thread_id);
  RemoveFromReady(thread_id);
  t.state = GuestThread::State::kBlocked;
  t.futex_addr = 0;
  t.multiwaiter_id = mw_id;
  t.wake_at = wake_at;
  t.timed_out = false;
  t.block_seq = ++block_seq_counter_;
  multiwaiters_[mw_id].waiting_thread = thread_id;
  for (obs::Observer* o : *observers_) {
    o->OnThreadBlock(thread_id, 0);
  }
}

int Scheduler::WakeExpired(Cycles now) {
  int woken = 0;
  for (auto& t : *threads_) {
    if ((t.state == GuestThread::State::kBlocked ||
         t.state == GuestThread::State::kSleeping) &&
        t.wake_at != GuestThread::kNoDeadline && t.wake_at <= now) {
      t.timed_out = (t.state == GuestThread::State::kBlocked);
      if (t.futex_addr != 0) {
        auto it = futex_waiters_.find(t.futex_addr);
        if (it != futex_waiters_.end()) {
          auto& q = it->second;
          q.erase(std::remove(q.begin(), q.end(), t.id), q.end());
          if (q.empty()) {
            futex_waiters_.erase(it);
          }
        }
        t.futex_addr = 0;
      }
      if (t.multiwaiter_id >= 0) {
        multiwaiters_[t.multiwaiter_id].waiting_thread = -1;
        t.multiwaiter_id = -1;
      }
      t.wake_at = GuestThread::kNoDeadline;
      t.state = GuestThread::State::kReady;
      ready_[t.priority % kPriorities].push_back(t.id);
      for (obs::Observer* o : *observers_) {
        o->OnThreadWake(t.id);
      }
      ++woken;
    }
  }
  return woken;
}

std::optional<Cycles> Scheduler::NextDeadline() const {
  std::optional<Cycles> next;
  for (const auto& t : *threads_) {
    if ((t.state == GuestThread::State::kBlocked ||
         t.state == GuestThread::State::kSleeping) &&
        t.wake_at != GuestThread::kNoDeadline) {
      if (!next || t.wake_at < *next) {
        next = t.wake_at;
      }
    }
  }
  return next;
}

bool Scheduler::AllExited() const {
  for (const auto& t : *threads_) {
    if (t.state != GuestThread::State::kExited) {
      return false;
    }
  }
  return true;
}

void Scheduler::SerializeState(snap::Writer& w) const {
  for (const auto& queue : ready_) {
    w.U32(static_cast<uint32_t>(queue.size()));
    for (int id : queue) {
      w.I32(id);
    }
  }
  w.U32(static_cast<uint32_t>(futex_waiters_.size()));
  for (const auto& [addr, waiters] : futex_waiters_) {
    w.U32(addr);
    w.U32(static_cast<uint32_t>(waiters.size()));
    for (int id : waiters) {
      w.I32(id);
    }
  }
  w.U32(static_cast<uint32_t>(multiwaiters_.size()));
  for (const Multiwaiter& mw : multiwaiters_) {
    w.Bool(mw.live);
    w.I32(mw.max_events);
    w.U32(static_cast<uint32_t>(mw.addrs.size()));
    for (Address a : mw.addrs) {
      w.U32(a);
    }
    w.I32(mw.waiting_thread);
  }
  for (Address a : irq_futex_addr_) {
    w.U32(a);
  }
  w.U64(idle_cycles_);
  w.U64(block_seq_counter_);
}

}  // namespace cheriot
