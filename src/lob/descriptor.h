#ifndef EOS_LOB_DESCRIPTOR_H_
#define EOS_LOB_DESCRIPTOR_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "lob/node.h"

namespace eos {

// The root of a large object. EOS manages its internals but leaves its
// placement to the client — it can live alongside other roots on a shared
// page or inside a field of a small record (Section 4). It serializes to
// the same wire format as an index node, sized by LobConfig.max_root_bytes.
//
// The root *is* a LobNode: when level == 0 its entries point directly to
// leaf segments (Figure 5.a/5.b); otherwise to index nodes.
struct LobDescriptor {
  LobNode root;

  // Log sequence number of the last logged update, kept in the root so
  // updates can be undone/redone idempotently (Section 4.5).
  uint64_t lsn = 0;

  // Per-object segment size threshold hint (Section 4.4: "threshold values
  // can be specified as a hint on a per-object or per-file basis" and may
  // change each time the object is opened). 0 = use the manager's default.
  // Runtime-only: the client re-supplies it at open; it is not serialized.
  uint32_t threshold_hint = 0;

  // Id of the object this root belongs to, stamped into every log record
  // an update of it emits (Section 4.5). Runtime-only like threshold_hint:
  // the client that places the root supplies it; 0 for standalone use.
  uint64_t object_id = 0;

  uint64_t size() const { return root.Total(); }
  bool empty() const { return root.entries.empty(); }

  // Serialized image: node wire format followed by the 8-byte LSN; at most
  // max_root_bytes long in total.
  static uint32_t MaxEntriesFor(uint32_t max_root_bytes) {
    if (max_root_bytes <= NodeFormat::kHeaderBytes + 8) return 0;
    return (max_root_bytes - NodeFormat::kHeaderBytes - 8) /
           NodeFormat::kEntryBytes;
  }

  uint32_t SerializedBytes() const {
    return NodeFormat::kHeaderBytes +
           static_cast<uint32_t>(root.entries.size()) *
               NodeFormat::kEntryBytes +
           8;
  }

  Bytes Serialize() const {
    Bytes out(SerializedBytes(), 0);
    // NodeFormat::Serialize asserts against a page-size capacity; the root
    // buffer is exactly as large as needed, so pass a size that admits it.
    NodeFormat::Serialize(root, out.data(), SerializedBytes());
    EncodeU64(out.data() + SerializedBytes() - 8, lsn);
    return out;
  }

  static StatusOr<LobDescriptor> Deserialize(ByteView bytes) {
    if (bytes.size() < NodeFormat::kHeaderBytes + 8) {
      return Status::Corruption("large object root too short");
    }
    LobDescriptor d;
    EOS_RETURN_IF_ERROR(NodeFormat::Deserialize(
        bytes.data(), static_cast<uint32_t>(bytes.size() - 8), &d.root));
    if (d.SerializedBytes() != bytes.size()) {
      return Status::Corruption("large object root size mismatch");
    }
    d.lsn = DecodeU64(bytes.data() + bytes.size() - 8);
    return d;
  }
};

}  // namespace eos

#endif  // EOS_LOB_DESCRIPTOR_H_
