#include "src/sim/host.h"

#include "src/common/check.h"

namespace achilles {

namespace {
constexpr size_t kDeliverySlabSize = 64;
}  // namespace

Host::Host(Simulation* sim, uint32_t id) : sim_(sim), id_(id) {}

void Host::AttachMetrics(obs::MetricsRegistry* registry) {
  handler_ns_ = registry->GetHistogram("host.handler_ns");
  queue_wait_ns_ = registry->GetHistogram("host.queue_wait_ns");
}

void Host::JournalEvent(obs::JournalKind kind, uint64_t a, uint64_t b,
                        std::string_view detail) {
  if (recorder_ != nullptr) {
    recorder_->Event(id_, kind, LocalNow(), cause(), a, b, detail);
  }
}

void Host::BindProcess(std::unique_ptr<IProcess> process) {
  ACHILLES_CHECK(!process_);
  process_ = std::move(process);
  up_ = true;
  cpu_free_at_ = sim_->Now();
  JournalEvent(obs::JournalKind::kBoot, epoch_);
  if (lifecycle_) {
    lifecycle_(id_, "boot");
  }
  sim_->ScheduleRawAfter(0, &Host::StartEvent, this, epoch_);
}

void Host::StartEvent(void* self, uint64_t epoch, uint64_t) {
  auto* host = static_cast<Host*>(self);
  if (epoch == host->epoch_ && host->up_ && host->process_) {
    Work work;
    work.kind = WorkKind::kStart;
    work.name = "start";
    host->PushWork(std::move(work));
  }
}

void Host::Crash() {
  if (!up_) {
    return;
  }
  up_ = false;
  ++epoch_;
  process_.reset();
  queue_.clear();
  drain_pending_ = false;
  for (auto& [timer_id, timer] : timers_) {
    sim_->Cancel(timer.event);
  }
  timers_.clear();
  JournalEvent(obs::JournalKind::kCrash, epoch_);
  if (lifecycle_) {
    lifecycle_(id_, "crash");
  }
}

void Host::InjectStall(SimDuration d) {
  ACHILLES_CHECK(d >= 0);
  if (!up_) {
    return;
  }
  // A stall is just a handler that burns CPU: everything queued behind it (and any arrival
  // during the stall) waits it out, exactly like a long GC pause would behave.
  JournalEvent(obs::JournalKind::kStall, static_cast<uint64_t>(d));
  Work work;
  work.kind = WorkKind::kStall;
  work.stall = d;
  work.name = "stall";
  PushWork(std::move(work));
}

void Host::Reboot(std::unique_ptr<IProcess> process, SimDuration init_delay) {
  ACHILLES_CHECK(!up_);
  const uint64_t epoch = epoch_;
  // Ownership of the fresh process transfers into the boot event (rare control event:
  // the boxed std::function path is fine here).
  auto shared = std::make_shared<std::unique_ptr<IProcess>>(std::move(process));
  sim_->ScheduleAfter(init_delay, [this, epoch, shared] {
    if (epoch != epoch_ || up_) {
      return;  // Crashed again (or already rebooted) in the meantime.
    }
    BindProcess(std::move(*shared));
  });
}

Host::Delivery* Host::AllocDelivery() {
  if (delivery_free_ == nullptr) {
    auto slab = std::make_unique<Delivery[]>(kDeliverySlabSize);
    for (size_t i = kDeliverySlabSize; i-- > 0;) {
      slab[i].next = delivery_free_;
      delivery_free_ = &slab[i];
    }
    delivery_slabs_.push_back(std::move(slab));
  }
  Delivery* d = delivery_free_;
  delivery_free_ = d->next;
  d->next = nullptr;
  return d;
}

void Host::FreeDelivery(Delivery* d) {
  d->msg.reset();  // Release the payload reference while the slot sits on the freelist.
  d->has_path = false;
  d->next = delivery_free_;
  delivery_free_ = d;
}

void Host::DeliverAt(SimTime arrival, uint32_t from, MessageRef msg,
                     const obs::Path* path) {
  Delivery* d = AllocDelivery();
  d->msg = std::move(msg);
  d->from = from;
  d->has_path = path != nullptr;
  if (path != nullptr) {
    d->path = *path;
  }
  sim_->ScheduleRawAt(arrival, &Host::DeliveryEvent, this,
                      reinterpret_cast<uint64_t>(d));
}

void Host::DeliveryEvent(void* self, uint64_t record, uint64_t) {
  auto* host = static_cast<Host*>(self);
  host->FinishDelivery(reinterpret_cast<Delivery*>(record));
}

void Host::FinishDelivery(Delivery* d) {
  // Liveness of the *current* incarnation is checked at arrival time: messages that arrive
  // while the host is down are lost, while messages still in flight across a reboot reach
  // the new incarnation (the network layer has no per-connection state to tear down).
  if (up_ && process_) {
    Work work;
    work.kind = WorkKind::kMessage;
    work.from = d->from;
    work.msg = std::move(d->msg);
    work.name = work.msg->TraceName();
    work.has_path = d->has_path;
    if (d->has_path) {
      work.path = d->path;
    }
    // One deliver record per accepted arrival, parented to the send that produced it; the
    // handler it queues runs under the deliver record.
    if (recorder_ != nullptr) {
      work.path.cause = recorder_->Event(id_, obs::JournalKind::kDeliver, sim_->Now(),
                                         work.path.cause, work.from, work.msg->WireSize(),
                                         work.name);
    }
    PushWork(std::move(work));
  }
  FreeDelivery(d);
}

void Host::ChargeCpuAs(obs::Component c, SimDuration d) {
  ACHILLES_CHECK(d >= 0);
  if (in_handler_) {
    handler_charge_ += d;
    cur_path_.Extend(c, d);
    if (recorder_ != nullptr) {
      recorder_->Charge(cur_path_.cause, c, d);
    }
  } else {
    // Charges outside a handler (e.g. setup) extend the CPU horizon directly.
    cpu_free_at_ = std::max(cpu_free_at_, sim_->Now()) + d;
  }
  cpu_used_ += d;
}

SimTime Host::LocalNow() const {
  return in_handler_ ? sim_->Now() + handler_charge_ : sim_->Now();
}

obs::Path Host::SendPath() const {
  if (in_handler_) {
    return cur_path_;  // Invariant: covered_until == LocalNow().
  }
  obs::Path fresh;
  fresh.Restart(sim_->Now());
  return fresh;
}

void Host::RestartPathAt(SimTime origin) {
  cur_path_.Restart(origin);  // Same handler context, same causal parent.
  // Any handler time already spent past `origin` (e.g. building the block that defines the
  // proposal point) is CPU service; re-covering it keeps sum(parts) == LocalNow - origin.
  cur_path_.CoverUntil(obs::Component::kCpu, LocalNow());
  if (recorder_ != nullptr) {
    recorder_->Origin(id_, origin, LocalNow(), &cur_path_.cause);
  }
}

uint64_t Host::SetTimer(SimDuration delay, std::function<void()> fn) {
  ACHILLES_CHECK(up_);
  const uint64_t timer_id = next_timer_id_++;
  const EventId event =
      sim_->ScheduleRawAfter(delay, &Host::TimerEvent, this, timer_id, epoch_);
  timers_.emplace(timer_id, Timer{event, std::move(fn)});
  return timer_id;
}

void Host::TimerEvent(void* self, uint64_t timer_id, uint64_t epoch) {
  auto* host = static_cast<Host*>(self);
  if (epoch != host->epoch_ || !host->up_) {
    return;
  }
  auto it = host->timers_.find(timer_id);
  if (it == host->timers_.end()) {
    return;
  }
  Work work;
  work.kind = WorkKind::kTimer;
  work.fn = std::move(it->second.fn);
  work.name = "timer";
  host->timers_.erase(it);
  host->PushWork(std::move(work));
}

void Host::CancelTimer(uint64_t timer_id) {
  auto it = timers_.find(timer_id);
  if (it != timers_.end()) {
    sim_->Cancel(it->second.event);
    timers_.erase(it);
  }
}

void Host::PushWork(Work&& work) {
  queue_.push_back(std::move(work));
  ScheduleDrain();
}

void Host::ScheduleDrain() {
  if (drain_pending_ || queue_.empty() || !up_) {
    return;
  }
  drain_pending_ = true;
  const SimTime start = std::max(cpu_free_at_, sim_->Now());
  sim_->ScheduleRawAt(start, &Host::DrainEvent, this, epoch_);
}

void Host::DrainEvent(void* self, uint64_t epoch, uint64_t) {
  auto* host = static_cast<Host*>(self);
  if (epoch != host->epoch_ || !host->up_) {
    return;
  }
  host->DrainOne();
}

void Host::DrainOne() {
  drain_pending_ = false;
  if (queue_.empty()) {
    return;
  }
  Work work = std::move(queue_.front());
  queue_.pop_front();
  in_handler_ = true;
  handler_charge_ = 0;
  const SimTime start = sim_->Now();
  if (!work.has_path) {
    // Timer/start handlers and path-less deliveries begin a fresh attribution chain (under
    // their deliver record, if any).
    work.path.Restart(start);
  }
  cur_path_ = work.path;
  // Run-queue wait between arrival (the path frontier) and handler start.
  if (queue_wait_ns_ != nullptr && start > cur_path_.covered_until) {
    queue_wait_ns_->Record(start - cur_path_.covered_until);
  }
  if (recorder_ != nullptr) {
    recorder_->Dispatch(id_, work.name, cur_path_.covered_until, start, &cur_path_.cause);
  }
  cur_path_.CoverUntil(obs::Component::kCpu, start);
  switch (work.kind) {
    case WorkKind::kMessage:
      process_->OnMessage(work.from, work.msg);
      break;
    case WorkKind::kTimer:
      work.fn();
      break;
    case WorkKind::kStart:
      process_->OnStart();
      break;
    case WorkKind::kStall:
      ChargeCpu(work.stall);
      break;
  }
  if (recorder_ != nullptr) {
    recorder_->HandlerEnd(id_, cur_path_.cause, start + handler_charge_);
  }
  if (handler_ns_ != nullptr) {
    handler_ns_->Record(handler_charge_);
  }
  in_handler_ = false;
  cpu_free_at_ = sim_->Now() + handler_charge_;
  ScheduleDrain();
}

}  // namespace achilles
