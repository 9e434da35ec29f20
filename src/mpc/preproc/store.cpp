#include "mpc/preproc/store.h"

namespace fairsfe::mpc::preproc {

CorrelatedRandomness::CorrelatedRandomness(std::size_t num_parties,
                                           std::size_t num_triples,
                                           std::size_t num_rots)
    : parties_(num_parties), triples_(num_triples), rots_(num_rots) {
  FAIRSFE_CHECK(parties_ >= 2, "CorrelatedRandomness needs >= 2 parties");
  a_.assign(parties_, BitVec(triples_));
  b_.assign(parties_, BitVec(triples_));
  c_.assign(parties_, BitVec(triples_));
  const std::size_t pairs = parties_ * (parties_ - 1);
  m0_.assign(pairs, BitVec(rots_));
  m1_.assign(pairs, BitVec(rots_));
  choice_.assign(pairs, BitVec(rots_));
  mc_.assign(pairs, BitVec(rots_));
}

void CorrelatedRandomness::set_triple(std::size_t party, std::size_t t, bool a,
                                      bool b, bool c) {
  a_[party].set(t, a);
  b_[party].set(t, b);
  c_[party].set(t, c);
}

std::size_t CorrelatedRandomness::pair_index(std::size_t sender,
                                             std::size_t receiver) const {
  FAIRSFE_CHECK(sender != receiver && sender < parties_ && receiver < parties_,
                "ROT pair index out of range");
  // Dense index over ordered pairs: receiver slots skip the diagonal.
  return sender * (parties_ - 1) + (receiver < sender ? receiver : receiver - 1);
}

RotPair CorrelatedRandomness::rot(std::size_t sender, std::size_t receiver,
                                  std::size_t t) const {
  const std::size_t p = pair_index(sender, receiver);
  return RotPair{m0_[p].get(t), m1_[p].get(t), choice_[p].get(t), mc_[p].get(t)};
}

void CorrelatedRandomness::set_rot(std::size_t sender, std::size_t receiver,
                                   std::size_t t, const RotPair& r) {
  const std::size_t p = pair_index(sender, receiver);
  m0_[p].set(t, r.m0);
  m1_[p].set(t, r.m1);
  choice_[p].set(t, r.choice);
  mc_[p].set(t, r.mc);
}

void CorrelatedRandomness::check_consistent() const {
  for (std::size_t t = 0; t < triples_; ++t) {
    bool a = false, b = false, c = false;
    for (std::size_t p = 0; p < parties_; ++p) {
      a = a != a_[p].get(t);
      b = b != b_[p].get(t);
      c = c != c_[p].get(t);
    }
    FAIRSFE_CHECK(c == (a && b),
                  "CorrelatedRandomness: Beaver triple violates c = a & b");
  }
  for (std::size_t s = 0; s < parties_; ++s) {
    for (std::size_t r = 0; r < parties_; ++r) {
      if (s == r) continue;
      for (std::size_t t = 0; t < rots_; ++t) {
        const RotPair x = rot(s, r, t);
        FAIRSFE_CHECK(x.mc == (x.choice ? x.m1 : x.m0),
                      "CorrelatedRandomness: ROT violates mc = m_choice");
      }
    }
  }
}

CorrelatedRandomness triples_from_rots(const CorrelatedRandomness& store,
                                       std::size_t count) {
  FAIRSFE_CHECK(store.num_parties() == 2,
                "triples_from_rots: the pairwise reduction is two-party");
  FAIRSFE_CHECK(count <= store.num_rots(),
                "triples_from_rots: not enough ROTs in the store");
  CorrelatedRandomness out(2, count, 0);
  for (std::size_t t = 0; t < count; ++t) {
    // ROT A: party 0 sends, party 1 receives; ROT B: the reverse.
    const RotPair A = store.rot(0, 1, t);
    const RotPair B = store.rot(1, 0, t);
    // a_p = choice of the ROT p received; b_p = m0 ⊕ m1 of the ROT p sent.
    // Cross terms: a_1·b_0 = A.choice·(A.m0 ⊕ A.m1) = A.m0 ⊕ A.mc, shared as
    // (A.m0 at party 0, A.mc at party 1); symmetrically for a_0·b_1 via B.
    const bool a0 = B.choice, b0 = A.m0 != A.m1;
    const bool a1 = A.choice, b1 = B.m0 != B.m1;
    const bool c0 = ((a0 && b0) != A.m0) != B.mc;
    const bool c1 = ((a1 && b1) != A.mc) != B.m0;
    out.set_triple(0, t, a0, b0, c0);
    out.set_triple(1, t, a1, b1, c1);
  }
  out.check_consistent();
  return out;
}

}  // namespace fairsfe::mpc::preproc
