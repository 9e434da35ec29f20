// Network subsystem tests (ISSUE 8): the wire codec fails closed under
// malformed input (truncation, oversized length prefixes, corruption,
// duplicated sequence numbers), and the multi-process mesh merges a lockstep
// round into the engine's canonical mailbox order over real sockets.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.h"
#include "net/mesh.h"
#include "net/socket.h"
#include "net/wire.h"

namespace fairsfe::net {
namespace {

Frame sample_frame() {
  Frame f;
  f.kind = FrameKind::kMsg;
  f.seq = 7;
  f.round = 3;
  f.from = 1;
  f.to = sim::kBroadcast;  // negative ids must survive the u32 encoding
  f.rcpt = 2;
  f.payload = bytes_of("share:deadbeef");
  return f;
}

ByteView body_of(const Bytes& encoded) {
  return ByteView(encoded).subspan(4);  // skip the u32 length prefix
}

TEST(Wire, FrameRoundTripsThroughCodec) {
  const Frame f = sample_frame();
  const Bytes enc = encode_frame(f);
  const auto dec = decode_frame_body(body_of(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->kind, f.kind);
  EXPECT_EQ(dec->seq, f.seq);
  EXPECT_EQ(dec->round, f.round);
  EXPECT_EQ(dec->from, f.from);
  EXPECT_EQ(dec->to, f.to);
  EXPECT_EQ(dec->rcpt, f.rcpt);
  EXPECT_EQ(dec->payload, f.payload);
}

TEST(Wire, EveryTruncationFailsClosed) {
  const Bytes enc = encode_frame(sample_frame());
  const ByteView body = body_of(enc);
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(decode_frame_body(body.first(len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(Wire, TrailingBytesFailClosed) {
  Bytes enc = encode_frame(sample_frame());
  enc.push_back(0x00);
  EXPECT_FALSE(decode_frame_body(body_of(enc)).has_value());
}

TEST(Wire, BadKindFailsClosed) {
  const Bytes enc = encode_frame(sample_frame());
  for (const std::uint8_t kind : {0, 5, 42, 255}) {
    Bytes mutated(body_of(enc).begin(), body_of(enc).end());
    mutated[0] = kind;
    EXPECT_FALSE(decode_frame_body(mutated).has_value()) << int(kind);
  }
}

TEST(Wire, EverySingleBitFlipFailsTheChecksum) {
  // Deterministic exhaustive corruption: any one-bit perturbation of the
  // body — header fields, payload bytes, the checksum itself — must yield
  // "malformed", never a silently different frame.
  const Bytes enc = encode_frame(sample_frame());
  const ByteView body = body_of(enc);
  for (std::size_t i = 0; i < body.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated(body.begin(), body.end());
      mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
      EXPECT_FALSE(decode_frame_body(mutated).has_value())
          << "byte " << i << " bit " << bit << " decoded";
    }
  }
}

TEST(Wire, RandomCorruptionFuzzFailsClosed) {
  // Multi-byte corruption driven by the repo's deterministic Rng: splice
  // random garbage into random offsets of valid bodies. Every mutation must
  // decode to nullopt (FNV-1a makes a colliding mutation astronomically
  // unlikely, and for this fixed seed the outcome is reproducible).
  Rng rng(0x5eed);
  for (int trial = 0; trial < 200; ++trial) {
    Frame f = sample_frame();
    f.seq = static_cast<std::uint32_t>(rng.u64());
    f.payload.resize(rng.u64() % 64);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.u64());
    const Bytes enc = encode_frame(f);
    Bytes body(body_of(enc).begin(), body_of(enc).end());
    const std::size_t edits = 1 + rng.u64() % 4;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.u64() % body.size();
      const auto val = static_cast<std::uint8_t>(rng.u64());
      if (body[pos] == val) {
        body[pos] = static_cast<std::uint8_t>(val ^ 0x01);
      } else {
        body[pos] = val;
      }
    }
    EXPECT_FALSE(decode_frame_body(body).has_value()) << "trial " << trial;
  }
}

TEST(Wire, OversizedLengthPrefixPoisonsBeforeAllocating) {
  // A hostile 4 GiB length prefix must be rejected from the prefix alone:
  // kBad after four bytes, no attempt to buffer the announced body.
  FrameReader r;
  const Bytes prefix = {0xff, 0xff, 0xff, 0xff};
  r.feed(prefix);
  Frame out;
  EXPECT_EQ(r.poll(out), FrameReader::Status::kBad);
  EXPECT_LE(r.buffered(), prefix.size());
}

TEST(Wire, ReaderPoisonsPermanently) {
  FrameReader r;
  Bytes garbage = encode_frame(sample_frame());
  garbage[4] ^= 0x01;  // corrupt the kind byte -> framing error
  r.feed(garbage);
  Frame out;
  EXPECT_EQ(r.poll(out), FrameReader::Status::kBad);
  // A valid frame after the error must NOT resynchronize the stream.
  r.feed(encode_frame(sample_frame()));
  EXPECT_EQ(r.poll(out), FrameReader::Status::kBad);
}

TEST(Wire, ReaderReassemblesOneByteChunks) {
  // Three frames drip-fed one byte at a time come out whole and in order.
  std::vector<Frame> sent;
  Bytes stream;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    Frame f = sample_frame();
    f.seq = i;
    f.payload = bytes_of("chunk" + std::to_string(i));
    sent.push_back(f);
    const Bytes enc = encode_frame(f);
    stream.insert(stream.end(), enc.begin(), enc.end());
  }
  FrameReader r;
  std::vector<Frame> got;
  for (const std::uint8_t b : stream) {
    r.feed(ByteView(&b, 1));
    Frame out;
    while (r.poll(out) == FrameReader::Status::kFrame) got.push_back(out);
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].seq, sent[i].seq);
    EXPECT_EQ(got[i].payload, sent[i].payload);
  }
}

TEST(Wire, SeqTrackerRejectsDuplicatesGapsAndReordering) {
  SeqTracker t;
  EXPECT_TRUE(t.accept(0, 1, 1));
  EXPECT_FALSE(t.accept(0, 1, 1));  // duplicate
  EXPECT_TRUE(t.accept(0, 1, 2));
  EXPECT_FALSE(t.accept(0, 1, 4));  // gap (a dropped frame)
  EXPECT_FALSE(t.accept(0, 1, 2));  // replay
  EXPECT_TRUE(t.accept(0, 1, 3));
  // Channels are independent, including the reverse direction.
  EXPECT_TRUE(t.accept(1, 0, 1));
  EXPECT_FALSE(t.accept(1, 0, 3));
  // First frame on a channel must be exactly 1.
  EXPECT_FALSE(t.accept(2, 0, 2));
}

TEST(Wire, SeqTrackerNextMatchesAccept) {
  SeqTracker sender;
  SeqTracker receiver;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(receiver.accept(0, 1, sender.next(0, 1)));
  }
  EXPECT_EQ(sender.next(0, 1), 6u);
}

// --- Mesh -------------------------------------------------------------------

using sim::Message;

/// Payload label "<kind><pid>", e.g. "b2" for party 2's broadcast.
std::string label(char kind, int pid) {
  std::string out(1, kind);
  out += std::to_string(pid);
  return out;
}

TEST(Mesh, ThreeProcessLockstepMatchesEngineMailboxOrder) {
  constexpr std::uint16_t kBase = 24310;
  constexpr int kParties = 3;
  struct NodeLog {
    std::vector<std::vector<Message>> inboxes;
    std::vector<bool> done_flags;
  };
  std::vector<NodeLog> logs(kParties);
  std::vector<std::thread> threads;
  for (int i = 0; i < kParties; ++i) {
    threads.emplace_back([i, &logs] {
      MeshConfig cfg;
      cfg.self = i;
      cfg.parties = kParties;
      cfg.base_port = kBase;
      MeshNode node(cfg);
      node.connect();
      for (int round = 0; round < 3; ++round) {
        std::vector<Message> out;
        if (round < 2) {
          out.push_back(Message{i, sim::kBroadcast, bytes_of(label('b', i))});
          out.push_back(Message{i, (i + 1) % kParties, bytes_of(label('p', i))});
        }
        // Round 1: only party 0 claims done -> all_done must stay false.
        const bool self_done = (round == 2) || (round == 1 && i == 0);
        const auto res = node.exchange(round, out, self_done);
        logs[i].inboxes.push_back(res.inbox);
        logs[i].done_flags.push_back(res.all_done);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kParties; ++i) {
    // Canonical mailbox order: concatenated by sender pid, each sender's
    // legs in emission order (broadcast first, then its p2p if addressed to
    // us), own broadcasts included.
    const auto& inbox = logs[i].inboxes[0];
    std::vector<std::pair<int, std::string>> got;
    for (const Message& m : inbox) {
      got.emplace_back(m.from, std::string(m.payload.begin(), m.payload.end()));
      if (m.to != sim::kBroadcast) {
        EXPECT_EQ(m.to, i);
      }
    }
    std::vector<std::pair<int, std::string>> want;
    for (int s = 0; s < kParties; ++s) {
      want.emplace_back(s, label('b', s));
      if ((s + 1) % kParties == i) want.emplace_back(s, label('p', s));
    }
    EXPECT_EQ(got, want) << "party " << i << " round 0";
    EXPECT_EQ(logs[i].inboxes[2].size(), 0u) << "round 2 ships nothing";
    EXPECT_FALSE(logs[i].done_flags[0]);
    EXPECT_FALSE(logs[i].done_flags[1]) << "one done bit must not finish all";
    EXPECT_TRUE(logs[i].done_flags[2]);
  }
}

TEST(Mesh, BogusHelloFailsClosed) {
  // A dialer that presents the wrong magic must abort the handshake: the
  // accepting node's connect() throws instead of admitting the peer.
  MeshConfig cfg;
  cfg.self = 0;
  cfg.parties = 2;
  cfg.base_port = 24330;
  MeshNode node(cfg);
  std::thread attacker([&node] {
    Stream s = tcp_connect("127.0.0.1", node.port());
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.seq = 1;
    hello.from = 1;
    hello.to = 0;
    hello.rcpt = 0;
    hello.payload = bytes_of("not-the-magic");
    s.write_all(encode_frame(hello));
  });
  EXPECT_THROW(node.connect(), std::runtime_error);
  attacker.join();
}

}  // namespace
}  // namespace fairsfe::net
