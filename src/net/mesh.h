// Full-mesh lockstep message exchange for multi-process protocol runs.
//
// fairparty (bench/fairparty.cpp) hosts ONE sim::IParty per OS process; a
// MeshNode gives that process the synchronous channel model the in-process
// engine provides: in round r every party writes its outgoing messages to
// each peer (framed with the src/net/wire.h codec, per-link sequence
// numbers) followed by a RoundMark carrying its done bit, then reads every
// peer's round-r batch up to the peer's RoundMark. exchange() returns the
// merged inbox in the engine's canonical mailbox order — legs concatenated
// by sender PartyId, each sender's legs in emission order, own broadcasts
// included — so a mesh run of deterministic parties computes exactly what
// the single-process engine computes.
//
// Topology/setup: party i listens on (listen_host, base_port + i); the mesh
// is established by accept-from-higher / dial-lower — party i accepts a
// connection from every j > i and dials every j < i with
// tcp_connect_retry(), which absorbs the process-startup race (a dial
// succeeds as soon as the peer's listener is bound; the kernel backlog
// covers the window before its accept loop runs). The dialer identifies
// itself with a Hello frame; spoofed or replayed identities fail closed via
// the magic payload and per-link SeqTracker.
//
// Termination: exchange() reports all_done once every party's round mark
// carried done=1 in the same round. Done flags travel symmetrically, so all
// parties observe all_done in the same round and stop in lockstep.
//
// Scope: this is the demo/deployment substrate (scripts/run_parties.sh, the
// compose file), not the Monte-Carlo hot path — the estimator keeps the
// in-process engine. Writes for a round happen before reads, so per-round
// traffic must fit the kernel socket buffers; protocol rounds here are KBs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "sim/message.h"

namespace fairsfe::net {

struct MeshConfig {
  sim::PartyId self = 0;
  std::size_t parties = 2;
  /// Where to dial peer j when `hosts` is empty (single-machine default).
  std::string host = "127.0.0.1";
  /// Per-party hostnames for multi-machine/compose deployments (size must be
  /// `parties` when non-empty; hosts[j] is dialed for peer j).
  std::vector<std::string> hosts;
  /// Local bind address ("0.0.0.0" for cross-container meshes).
  std::string listen_host = "127.0.0.1";
  std::uint16_t base_port = 9100;  ///< party i listens on base_port + i
  int connect_attempts = 120;      ///< retry budget for the startup race
};

/// Wire-cost counters, cumulative over the node's lifetime.
struct MeshStats {
  std::uint64_t frames = 0;      ///< frames sent (messages and round marks)
  std::uint64_t wire_bytes = 0;  ///< encoded bytes written to the wire
  std::uint64_t rounds = 0;      ///< exchange() calls (round barriers)
  std::uint64_t reconnects = 0;  ///< connect attempts beyond the first
};

class MeshNode {
 public:
  /// Binds this party's listener (so peers can dial immediately); the mesh
  /// itself is established by connect().
  explicit MeshNode(MeshConfig cfg);
  ~MeshNode();
  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  /// Establish the full mesh: dial every lower pid, accept every higher one.
  /// Throws std::runtime_error on timeout/handshake failure.
  void connect();

  struct RoundResult {
    std::vector<sim::Message> inbox;  ///< round-r messages, mailbox order
    bool all_done = false;  ///< every party (self included) reported done
  };

  /// One lockstep round: send `out` (own broadcast/self legs are delivered
  /// locally; kFunc traffic is unsupported and throws), read every peer's
  /// batch, return the merged inbox. `self_done` is this party's done bit
  /// for the round mark.
  RoundResult exchange(int round, const std::vector<sim::Message>& out,
                       bool self_done);

  [[nodiscard]] const MeshStats& stats() const { return stats_; }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

 private:
  struct Peer {
    sim::PartyId pid = 0;
    Stream stream;
    FrameReader reader;
  };

  /// Next complete, checksum-valid frame from the peer; throws on EOF or a
  /// malformed stream (fail closed — no resync).
  Frame read_frame(Peer& peer);
  Peer* peer_for(sim::PartyId pid);

  MeshConfig cfg_;
  TcpListener listener_;
  std::vector<Peer> peers_;  ///< every pid != self, sorted by pid
  SeqTracker send_seq_;
  SeqTracker recv_seq_;
  MeshStats stats_;
};

}  // namespace fairsfe::net
