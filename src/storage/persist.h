// Keyed-record persistence interface. Three surfaces speak it: the host record store
// (storage::HostStableStorage::record_store(); outlives crashes minus unsynced suffixes, no
// rollback adversary), the enclave's sealed blobs (EnclaveRuntime::sealed_store();
// outlives crashes, but the OS may roll them back or erase them), and a rollback-defense
// backend's record facet (persist::Backend::store() in defense.h). The failure semantics
// belong to the surface; the freshness guarantees, and the trusted counter that buys them
// under the local defense, belong to the backend.
#ifndef SRC_STORAGE_PERSIST_H_
#define SRC_STORAGE_PERSIST_H_

#include <optional>
#include <string>

#include "src/common/bytes.h"

namespace achilles {
namespace persist {

// Put atomically replaces the record under `key` and is durable when it returns. Get
// returns the surviving record, which after a crash reflects the surface's failure
// semantics, not necessarily the last Put.
class Store {
 public:
  virtual ~Store() = default;

  virtual void Put(const std::string& key, ByteView record) = 0;
  virtual std::optional<Bytes> Get(const std::string& key) = 0;
};

}  // namespace persist
}  // namespace achilles

#endif  // SRC_STORAGE_PERSIST_H_
