// Deterministic wire codec for simulation messages sent between processes.
//
// Every frame is a u32 little-endian length prefix followed by a body in the
// repo's canonical crypto/bytes.h encoding:
//
//   u8  kind        kMsg | kRoundMark | kHello | kBye
//   u32 seq         per-(from,to)-channel sequence number, starts at 1
//   u32 round       engine round the frame belongs to
//   u32 from        sim::PartyId as two's-complement u32 (kFunc is negative)
//   u32 to          original addressing (kBroadcast survives the wire)
//   u32 rcpt        mailbox owner of this delivery leg
//   blob payload    message payload (u32 length prefix)
//   u32 checksum    FNV-1a over every body byte above
//
// Decoding fails closed: a bad kind, an oversized length prefix, a checksum
// mismatch, trailing bytes, or a truncated body all yield "malformed", never
// a partially-trusted frame (tests/test_net.cpp fuzzes this). Sequence
// numbers are validated separately by SeqTracker — exactly-once, in-order
// per channel — so a duplicated, dropped, or reordered frame on a socket
// stream is detected rather than silently perturbing an execution.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "crypto/bytes.h"

namespace fairsfe::net {

enum class FrameKind : std::uint8_t {
  kMsg = 1,        ///< one delivery leg of a simulation message
  kRoundMark = 2,  ///< round barrier; payload carries the sender's done bit
  kHello = 3,      ///< connection handshake (payload: sender PartyId, magic)
  kBye = 4,        ///< orderly teardown
};

/// Hard cap on a frame body. Protocol messages are tiny (shares, OT rows);
/// anything near this size is an attack or a bug, and the cap is what makes
/// a hostile length prefix unable to trigger a huge allocation.
inline constexpr std::size_t kMaxFrameBody = 1u << 20;

struct Frame {
  FrameKind kind = FrameKind::kMsg;
  std::uint32_t seq = 0;
  std::uint32_t round = 0;
  std::int32_t from = 0;
  std::int32_t to = 0;
  std::int32_t rcpt = 0;
  Bytes payload;
};

/// FNV-1a 32-bit over `data` (the frame-body checksum).
[[nodiscard]] std::uint32_t fnv1a(ByteView data);

/// Encode a frame, length prefix included.
[[nodiscard]] Bytes encode_frame(const Frame& f);

/// Decode one frame body (the bytes after the length prefix). std::nullopt on
/// any malformation.
[[nodiscard]] std::optional<Frame> decode_frame_body(ByteView body);

/// Incremental frame extractor over an untrusted byte stream. Feed bytes in
/// arbitrary chunk sizes; poll() yields complete frames. Once kBad is
/// returned the reader is poisoned (a framing error desynchronizes the
/// stream; there is no resync).
class FrameReader {
 public:
  enum class Status { kFrame, kNeedMore, kBad };

  void feed(ByteView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  /// Extract the next complete frame into `out`.
  Status poll(Frame& out);

  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
};

/// Exactly-once in-order validator for per-channel sequence numbers. The
/// first frame on channel (from, to) must carry seq 1, and each subsequent
/// frame the previous seq + 1.
class SeqTracker {
 public:
  /// Returns true iff `seq` is the next expected value for the channel (and
  /// records it). False = duplicate, gap, or reordering — callers fail closed.
  bool accept(std::int32_t from, std::int32_t to, std::uint32_t seq);

  /// Next seq to assign for an outgoing frame on the channel.
  std::uint32_t next(std::int32_t from, std::int32_t to);

 private:
  std::map<std::pair<std::int32_t, std::int32_t>, std::uint32_t> last_;
};

}  // namespace fairsfe::net
