#include "src/storage/host_storage.h"

#include <algorithm>

#include "src/sim/host.h"

namespace achilles {
namespace storage {

const char* WalFateName(WalFate fate) {
  switch (fate) {
    case WalFate::kIntact:
      return "intact";
    case WalFate::kLostUnsynced:
      return "lost-unsynced";
    case WalFate::kTornTail:
      return "torn-tail";
  }
  return "?";
}

WriteAheadLog::WriteAheadLog(HostStableStorage* device, std::string name)
    : device_(device), name_(std::move(name)) {}

void WriteAheadLog::Append(ByteView record, SyncMode mode) {
  records_.emplace_back(record.begin(), record.end());
  bytes_ += record.size();
  device_->ever_written_ = true;
  device_->host_->JournalEvent(obs::JournalKind::kWalAppend, record.size(),
                               records_.size(), name_);
  if (mode == SyncMode::kSync) {
    device_->SyncAll();
  }
}

void WriteAheadLog::Sync() { device_->SyncAll(); }

void WriteAheadLog::TruncateFront(size_t count) {
  count = std::min(count, records_.size());
  if (count == 0) {
    return;
  }
  // Barrier 1: the drop must be computed against a durable image, so any unsynced tail
  // (here or anywhere else in the sync domain) is flushed first.
  device_->SyncAll();
  uint64_t dropped_bytes = 0;
  for (size_t i = 0; i < count; ++i) {
    dropped_bytes += records_[i].size();
  }
  records_.erase(records_.begin(), records_.begin() + static_cast<ptrdiff_t>(count));
  bytes_ -= dropped_bytes;
  durable_records_ = records_.size();
  durable_bytes_ = bytes_;
  // Barrier 2: the metadata write that commits the new log head is itself fsynced, so the
  // truncation is atomic — a crash fate applied after this point replays over the compacted
  // durable image and can never resurrect the dropped prefix.
  ++device_->fsyncs_;
  device_->host_->ChargeCpuAs(obs::Component::kFsync, device_->fsync_cost_);
  device_->host_->JournalEvent(obs::JournalKind::kLogTruncate, count, dropped_bytes, name_);
}

RecordStore::RecordStore(HostStableStorage* device) : device_(device) {}

void RecordStore::Put(const std::string& key, ByteView value, SyncMode mode) {
  Slot& slot = slots_[key];
  slot.value = Bytes(value.begin(), value.end());
  device_->ever_written_ = true;
  // Move-to-back in the dirty order: only the newest in-flight write can be torn.
  for (auto it = dirty_order_.begin(); it != dirty_order_.end(); ++it) {
    if (*it == key) {
      dirty_order_.erase(it);
      break;
    }
  }
  dirty_order_.push_back(key);
  device_->host_->JournalEvent(obs::JournalKind::kWalAppend, value.size(),
                               slots_.size(), "records/" + key);
  if (mode == SyncMode::kSync) {
    device_->SyncAll();
  }
}

std::optional<Bytes> RecordStore::Get(const std::string& key) const {
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

void HostDurableStore::Put(const std::string& key, ByteView record) {
  device_->records().Put(key, record, SyncMode::kSync);
}

std::optional<Bytes> HostDurableStore::Get(const std::string& key) {
  return device_->records().Get(key);
}

HostStableStorage::HostStableStorage(Host* host, SimDuration fsync_cost)
    : host_(host), fsync_cost_(fsync_cost), records_(this), record_store_(this) {}

WriteAheadLog& HostStableStorage::Wal(const std::string& name) {
  auto it = wals_.find(name);
  if (it == wals_.end()) {
    it = wals_.emplace(name, std::make_unique<WriteAheadLog>(this, name)).first;
  }
  return *it->second;
}

bool HostStableStorage::Dirty() const {
  if (!records_.dirty_order_.empty()) {
    return true;
  }
  for (const auto& [name, wal] : wals_) {
    if (wal->durable_records_ < wal->records_.size()) {
      return true;
    }
  }
  return false;
}

void HostStableStorage::SyncAll() {
  if (!Dirty()) {
    return;
  }
  uint64_t flushed_records = 0;
  uint64_t flushed_bytes = 0;
  for (const auto& [name, wal] : wals_) {
    flushed_records += wal->records_.size() - wal->durable_records_;
    flushed_bytes += wal->bytes_ - wal->durable_bytes_;
    wal->durable_records_ = wal->records_.size();
    wal->durable_bytes_ = wal->bytes_;
  }
  for (const std::string& key : records_.dirty_order_) {
    RecordStore::Slot& slot = records_.slots_[key];
    flushed_records += 1;
    flushed_bytes += slot.value ? slot.value->size() : 0;
    slot.durable_value = slot.value;
  }
  records_.dirty_order_.clear();
  ++fsyncs_;
  host_->ChargeCpuAs(obs::Component::kFsync, fsync_cost_);
  host_->JournalEvent(obs::JournalKind::kFsync, flushed_records, flushed_bytes);
}

uint64_t HostStableStorage::TotalWalRecords() const {
  uint64_t total = 0;
  for (const auto& [name, wal] : wals_) {
    total += wal->records_.size();
  }
  return total;
}

uint64_t HostStableStorage::TotalWalBytes() const {
  uint64_t total = 0;
  for (const auto& [name, wal] : wals_) {
    total += wal->bytes_;
  }
  return total;
}

void HostStableStorage::ApplyCrashFate(WalFate fate) {
  for (const auto& [name, wal] : wals_) {
    size_t keep = wal->records_.size();
    switch (fate) {
      case WalFate::kIntact:
        break;
      case WalFate::kLostUnsynced:
        keep = wal->durable_records_;
        break;
      case WalFate::kTornTail:
        // The in-flight tail write tore; earlier unsynced records had already drained.
        if (keep > wal->durable_records_) {
          keep -= 1;
        }
        break;
    }
    if (keep < wal->records_.size()) {
      uint64_t dropped_bytes = 0;
      for (size_t i = keep; i < wal->records_.size(); ++i) {
        dropped_bytes += wal->records_[i].size();
      }
      host_->JournalEvent(obs::JournalKind::kWalTruncate, wal->records_.size() - keep,
                          dropped_bytes, name);
      wal->records_.resize(keep);
      wal->bytes_ -= dropped_bytes;
    }
    wal->durable_records_ = wal->records_.size();
    wal->durable_bytes_ = wal->bytes_;
  }
  if (!records_.dirty_order_.empty()) {
    size_t reverted = 0;
    switch (fate) {
      case WalFate::kIntact:
        for (const std::string& key : records_.dirty_order_) {
          RecordStore::Slot& slot = records_.slots_[key];
          slot.durable_value = slot.value;
        }
        break;
      case WalFate::kLostUnsynced:
        for (const std::string& key : records_.dirty_order_) {
          RecordStore::Slot& slot = records_.slots_[key];
          slot.value = slot.durable_value;
          ++reverted;
        }
        break;
      case WalFate::kTornTail: {
        // Only the newest in-flight put tore; older unsynced puts had drained.
        for (size_t i = 0; i + 1 < records_.dirty_order_.size(); ++i) {
          RecordStore::Slot& slot = records_.slots_[records_.dirty_order_[i]];
          slot.durable_value = slot.value;
        }
        RecordStore::Slot& torn = records_.slots_[records_.dirty_order_.back()];
        torn.value = torn.durable_value;
        reverted = 1;
        break;
      }
    }
    if (reverted > 0) {
      host_->JournalEvent(obs::JournalKind::kWalTruncate, reverted, 0, "records");
    }
    records_.dirty_order_.clear();
  }
}

}  // namespace storage
}  // namespace achilles
