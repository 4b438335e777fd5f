// Messages shared by all protocols: client traffic and block synchronization.
#ifndef SRC_CONSENSUS_MESSAGES_H_
#define SRC_CONSENSUS_MESSAGES_H_

#include <vector>

#include "src/consensus/block.h"
#include "src/sim/process.h"

namespace achilles {

// Client -> replicas: a batch of fresh transactions.
struct ClientSubmitMsg : SimMessage {
  const char* TraceName() const override { return "client_submit"; }
  std::vector<Transaction> txs;

  // Senders call this once `txs` is final: one message object goes out on every replica
  // link, and each send asks for its size.
  void MemoizeWireSize() { wire_size_memo_ = WireSize(); }
  size_t WireSize() const override {
    return wire_size_memo_ != 0 ? wire_size_memo_ : 8 + TotalWireSize(txs);
  }

 private:
  size_t wire_size_memo_ = 0;
};

// Replica -> client: a committed block together with its commitment certificate (the client
// validates one reply — reply responsiveness).
struct ClientReplyMsg : SimMessage {
  const char* TraceName() const override { return "client_reply"; }
  BlockPtr block;
  size_t cert_wire_size = 0;

  size_t WireSize() const override { return block->WireSize() + cert_wire_size; }
};

// Block synchronization: pull a block (and unknown ancestors) from a peer.
struct BlockFetchRequest : SimMessage {
  const char* TraceName() const override { return "block_fetch_req"; }
  Hash256 want = ZeroHash();
  size_t WireSize() const override { return 32; }
};

struct BlockFetchResponse : SimMessage {
  const char* TraceName() const override { return "block_fetch_resp"; }
  std::vector<BlockPtr> blocks;  // Oldest first.
  size_t WireSize() const override {
    size_t total = 8;
    for (const BlockPtr& b : blocks) {
      total += b->WireSize();
    }
    return total;
  }
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_MESSAGES_H_
