// Simulated crash-consistent host stable storage: the disk under a replica process.
//
// One HostStableStorage per node, owned by the NodePlatform so it survives process crashes
// (like the sealed-storage device). It exposes two surfaces — named append-only write-ahead
// logs and a small atomic key-value record store — sharing one sync domain: a sync on any
// surface is an fsync barrier that makes *everything* pending durable (one disk, one
// flush), charged to the calling host as obs::Component::kFsync the same way ECALLs are
// charged today. Because handlers run to completion and crashes only land between handlers,
// an append+sync inside one handler is crash-atomic; the interesting failure window is
// deliberately-async writes.
//
// Crash semantics (applied by the harness between incarnations via ApplyCrashFate):
//   kIntact        everything written survives, synced or not (the cache happened to flush).
//   kLostUnsynced  data past the durable frontier is gone (the cache never flushed).
//   kTornTail      the cache mostly flushed, but the crash tore the in-flight tail write:
//                  each log loses its last unsynced record, the record store its last
//                  unsynced put; earlier unsynced data survives.
// In every case the synced prefix survives exactly — host storage has crash-consistency
// faults but NO rollback adversary. Rollback (resurrecting an old, valid state) stays
// exclusive to the TEE sealed-storage surface (src/tee/sealed_storage.h), preserving the
// paper's threat-model split: Achilles' contribution is measured against baselines whose
// disks behave like disks, not like the sealed-blob adversary.
#ifndef SRC_STORAGE_HOST_STORAGE_H_
#define SRC_STORAGE_HOST_STORAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/sim_time.h"
#include "src/storage/persist.h"

namespace achilles {

class Host;

namespace storage {

enum class SyncMode : uint8_t {
  kAsync = 0,  // Buffered; durable only after a later sync barrier (or a lucky crash).
  kSync = 1,   // Fsync barrier before returning: one kFsync charge, everything durable.
};

// What the host disk looks like when the node comes back up; carried per reboot event by
// the chaos fault scripts (src/harness/fault_script.h).
enum class WalFate : uint8_t {
  kIntact = 0,
  kLostUnsynced = 1,
  kTornTail = 2,
};

const char* WalFateName(WalFate fate);

class HostStableStorage;

// One append-only log of opaque records. Appends are buffered; Sync() (or SyncMode::kSync)
// raises the durable frontier to the current tail.
class WriteAheadLog {
 public:
  WriteAheadLog(HostStableStorage* device, std::string name);

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  void Append(ByteView record, SyncMode mode);
  // Device-wide fsync barrier (see HostStableStorage::SyncAll).
  void Sync();
  // Compaction barrier: atomically drops the oldest `count` records (clamped to the log
  // size). Runs a device-wide fsync first so the drop applies to a fully durable image,
  // then charges one more kFsync for the metadata write that commits the new log head —
  // a crash therefore sees either the old durable log or the truncated one, never a
  // partial drop. Journals kLogTruncate with what was dropped. No-op for count == 0.
  void TruncateFront(size_t count);

  const std::string& name() const { return name_; }
  // All records currently visible to the running process, durable or not, append order.
  const std::vector<Bytes>& records() const { return records_; }
  size_t NumRecords() const { return records_.size(); }
  size_t DurableRecords() const { return durable_records_; }
  uint64_t TotalBytes() const { return bytes_; }

 private:
  friend class HostStableStorage;

  HostStableStorage* device_;
  std::string name_;
  std::vector<Bytes> records_;
  size_t durable_records_ = 0;
  uint64_t bytes_ = 0;          // Sum of record sizes currently in the log.
  uint64_t durable_bytes_ = 0;  // Bytes at or below the durable frontier.
};

// Small atomic key-value store (metadata records: terms, votes, locks). A put atomically
// replaces the whole record — a crash never surfaces a torn value, only the previous one.
class RecordStore {
 public:
  explicit RecordStore(HostStableStorage* device);

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  void Put(const std::string& key, ByteView value, SyncMode mode);
  std::optional<Bytes> Get(const std::string& key) const;

 private:
  friend class HostStableStorage;

  struct Slot {
    std::optional<Bytes> value;          // Visible to the running process.
    std::optional<Bytes> durable_value;  // What a crash falls back to.
  };

  HostStableStorage* device_;
  std::map<std::string, Slot> slots_;
  std::vector<std::string> dirty_order_;  // Unsynced puts, oldest first (for torn-tail).
};

// persist::Store view over a HostStableStorage's record store: every Put is a sync put, so
// the interface contract ("durable on return") holds.
class HostDurableStore final : public persist::Store {
 public:
  explicit HostDurableStore(HostStableStorage* device) : device_(device) {}

  void Put(const std::string& key, ByteView record) override;
  std::optional<Bytes> Get(const std::string& key) override;

 private:
  HostStableStorage* device_;
};

// The per-node disk. Survives crashes; the harness applies a WalFate between incarnations.
class HostStableStorage {
 public:
  // `fsync_cost` is charged to `host` as obs::Component::kFsync per dirty sync barrier.
  HostStableStorage(Host* host, SimDuration fsync_cost);

  HostStableStorage(const HostStableStorage&) = delete;
  HostStableStorage& operator=(const HostStableStorage&) = delete;

  // Named log, created empty on first use. References stay valid for the device's life.
  WriteAheadLog& Wal(const std::string& name);
  RecordStore& records() { return records_; }
  // persist::Store handle for metadata records (sync puts over records()).
  persist::Store& record_store() { return record_store_; }

  // Fsync barrier: makes every pending write (all logs + the record store) durable with a
  // single kFsync charge. Clean barriers are free (nothing to flush).
  void SyncAll();

  // Crash hook for the harness: reshapes unsynced state per `fate`, journals what was
  // dropped (kWalTruncate), and leaves everything surviving durable. Called while the
  // node's process is down; charges no CPU (the crash already happened).
  void ApplyCrashFate(WalFate fate);

  uint64_t fsyncs() const { return fsyncs_; }
  // True once any append/put happened this boot-to-date (benches use this to tell
  // stable-storage protocols from storage-free ones).
  bool ever_written() const { return ever_written_; }

  // Footprint accessors (log-compaction gauges): records/bytes currently held across all
  // WALs on this disk.
  uint64_t TotalWalRecords() const;
  uint64_t TotalWalBytes() const;

 private:
  friend class WriteAheadLog;
  friend class RecordStore;

  bool Dirty() const;

  Host* host_;
  SimDuration fsync_cost_;
  // std::map keeps Wal() iteration deterministic; unique_ptr keeps references stable.
  std::map<std::string, std::unique_ptr<WriteAheadLog>> wals_;
  RecordStore records_;
  HostDurableStore record_store_;
  uint64_t fsyncs_ = 0;
  bool ever_written_ = false;
};

}  // namespace storage
}  // namespace achilles

#endif  // SRC_STORAGE_HOST_STORAGE_H_
