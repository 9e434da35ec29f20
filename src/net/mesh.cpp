#include "net/mesh.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fairsfe::net {

namespace {

/// Mesh handshake magic, so a fairparty process dialed by anything other
/// than a mesh peer fails closed at the hello.
const Bytes kMeshMagic = {'f', 's', 'f', 'e', 'm'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("MeshNode: " + what);
}

}  // namespace

MeshNode::MeshNode(MeshConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.self < 0 || static_cast<std::size_t>(cfg_.self) >= cfg_.parties) {
    fail("self pid out of range");
  }
  if (!cfg_.hosts.empty() && cfg_.hosts.size() != cfg_.parties) {
    fail("hosts list must name every party");
  }
  listener_ = TcpListener::bind(
      cfg_.listen_host,
      static_cast<std::uint16_t>(cfg_.base_port + cfg_.self));
}

MeshNode::~MeshNode() {
  for (Peer& p : peers_) {
    try {
      if (p.stream.valid()) {
        Frame bye;
        bye.kind = FrameKind::kBye;
        bye.from = cfg_.self;
        bye.to = p.pid;
        bye.rcpt = p.pid;
        bye.seq = send_seq_.next(cfg_.self, p.pid);
        p.stream.write_all(encode_frame(bye));
        p.stream.shutdown_write();
      }
    } catch (const std::exception&) {
      // Teardown is best-effort; the peer observes EOF either way.
    }
  }
}

MeshNode::Peer* MeshNode::peer_for(sim::PartyId pid) {
  for (Peer& p : peers_) {
    if (p.pid == pid) return &p;
  }
  return nullptr;
}

void MeshNode::connect() {
  const auto n = static_cast<sim::PartyId>(cfg_.parties);
  // Dial every lower pid, announcing ourselves with a Hello. The dial
  // succeeds as soon as the peer's listener is bound (MeshNode ctor), so the
  // only race is process startup — absorbed by tcp_connect_retry's budget.
  for (sim::PartyId j = 0; j < cfg_.self; ++j) {
    const std::string& host = cfg_.hosts.empty() ? cfg_.host : cfg_.hosts[j];
    ConnectResult c = tcp_connect_retry(
        host, static_cast<std::uint16_t>(cfg_.base_port + j),
        cfg_.connect_attempts);
    stats_.reconnects += static_cast<std::uint64_t>(c.retries);
    Peer peer;
    peer.pid = j;
    peer.stream = std::move(c.stream);
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.from = cfg_.self;
    hello.to = j;
    hello.rcpt = j;
    hello.seq = send_seq_.next(cfg_.self, j);
    hello.payload = kMeshMagic;
    peer.stream.write_all(encode_frame(hello));
    peers_.push_back(std::move(peer));
  }
  // Accept every higher pid; the Hello identifies which one dialed us.
  for (sim::PartyId j = cfg_.self + 1; j < n; ++j) {
    Peer peer;
    peer.stream = listener_.accept();
    const Frame hello = read_frame(peer);
    if (hello.kind != FrameKind::kHello || hello.payload != kMeshMagic) {
      fail("bad hello from dialer");
    }
    if (hello.from <= cfg_.self || hello.from >= n ||
        peer_for(hello.from) != nullptr) {
      fail("hello claims an impossible pid " + std::to_string(hello.from));
    }
    if (!recv_seq_.accept(hello.from, cfg_.self, hello.seq)) {
      fail("hello out of sequence");
    }
    peer.pid = hello.from;
    peers_.push_back(std::move(peer));
  }
  std::sort(peers_.begin(), peers_.end(),
            [](const Peer& a, const Peer& b) { return a.pid < b.pid; });
}

Frame MeshNode::read_frame(Peer& peer) {
  Frame f;
  std::uint8_t chunk[4096];
  for (;;) {
    const auto st = peer.reader.poll(f);
    if (st == FrameReader::Status::kFrame) return f;
    if (st == FrameReader::Status::kBad) {
      fail("malformed frame from peer " + std::to_string(peer.pid));
    }
    const std::size_t got = peer.stream.read_some(chunk);
    if (got == 0) {
      fail("peer " + std::to_string(peer.pid) + " closed mid-round");
    }
    peer.reader.feed(ByteView(chunk, got));
  }
}

MeshNode::RoundResult MeshNode::exchange(int round,
                                         const std::vector<sim::Message>& out,
                                         bool self_done) {
  // Phase 1: one framed batch per peer — this party's round-r legs for that
  // peer (broadcast legs fan out to every peer) followed by the round mark.
  for (Peer& peer : peers_) {
    Bytes wire;
    for (const sim::Message& m : out) {
      if (m.to == sim::kFunc) fail("kFunc traffic is unsupported on a mesh");
      if (m.to != sim::kBroadcast && m.to != peer.pid) continue;
      Frame f;
      f.kind = FrameKind::kMsg;
      f.seq = send_seq_.next(cfg_.self, peer.pid);
      f.round = static_cast<std::uint32_t>(round);
      f.from = m.from;
      f.to = m.to;
      f.rcpt = peer.pid;
      f.payload = m.payload;
      const Bytes enc = encode_frame(f);
      wire.insert(wire.end(), enc.begin(), enc.end());
      stats_.frames += 1;
    }
    Frame mark;
    mark.kind = FrameKind::kRoundMark;
    mark.seq = send_seq_.next(cfg_.self, peer.pid);
    mark.round = static_cast<std::uint32_t>(round);
    mark.from = cfg_.self;
    mark.to = peer.pid;
    mark.rcpt = peer.pid;
    mark.payload = Bytes{static_cast<std::uint8_t>(self_done ? 1 : 0)};
    const Bytes enc = encode_frame(mark);
    wire.insert(wire.end(), enc.begin(), enc.end());
    stats_.frames += 1;
    stats_.wire_bytes += wire.size();
    peer.stream.write_all(wire);
  }

  // Phase 2: drain every peer's batch up to its round mark. Everything is
  // validated before use: round number, per-link sequence, claimed sender,
  // delivery target — a deviating peer fails the run closed, it never
  // perturbs it silently.
  std::vector<std::vector<sim::Message>> from_peer(cfg_.parties);
  std::size_t done_count = self_done ? 1 : 0;
  for (Peer& peer : peers_) {
    for (;;) {
      const Frame f = read_frame(peer);
      if (!recv_seq_.accept(peer.pid, cfg_.self, f.seq)) {
        fail("frame out of sequence from peer " + std::to_string(peer.pid));
      }
      if (f.round != static_cast<std::uint32_t>(round)) {
        fail("peer " + std::to_string(peer.pid) + " is in round " +
             std::to_string(f.round) + ", expected " + std::to_string(round));
      }
      if (f.kind == FrameKind::kRoundMark) {
        if (!f.payload.empty() && f.payload[0] != 0) ++done_count;
        break;
      }
      if (f.kind != FrameKind::kMsg) fail("unexpected control frame mid-round");
      if (f.from != peer.pid) fail("peer forged a sender id");
      if (f.rcpt != cfg_.self) fail("misdelivered leg");
      from_peer[static_cast<std::size_t>(peer.pid)].push_back(
          sim::Message{f.from, f.to, f.payload});
    }
  }

  // Phase 3: merge into the engine's canonical mailbox order — senders by
  // pid, each sender's legs in emission order, own broadcast/self legs
  // delivered locally (the engine delivers a broadcast to its sender too).
  RoundResult res;
  for (std::size_t p = 0; p < cfg_.parties; ++p) {
    if (static_cast<sim::PartyId>(p) == cfg_.self) {
      for (const sim::Message& m : out) {
        if (m.to == sim::kBroadcast || m.to == cfg_.self) res.inbox.push_back(m);
      }
    } else {
      for (sim::Message& m : from_peer[p]) res.inbox.push_back(std::move(m));
    }
  }
  stats_.rounds += 1;
  res.all_done = done_count == cfg_.parties;
  return res;
}

}  // namespace fairsfe::net
