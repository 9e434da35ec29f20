#include "fair/mixed.h"

#include "fair/lemma18.h"

namespace fairsfe::fair {

ProtocolInstance make_optn_instance(const mpc::SfeSpec& spec,
                                    const std::vector<Bytes>& inputs, Rng& rng,
                                    mpc::NotesPtr notes) {
  ProtocolInstance inst;
  inst.parties = make_optn_parties(inputs, rng);
  inst.functionality = std::make_unique<PrivOutputFunc>(spec, std::move(notes));
  return inst;
}

ProtocolInstance make_half_gmw_instance(const mpc::SfeSpec& spec,
                                        const std::vector<Bytes>& inputs, Rng& rng,
                                        mpc::NotesPtr notes) {
  ProtocolInstance inst;
  inst.parties = make_half_gmw_parties(spec, inputs, rng);
  inst.functionality = std::make_unique<ShamirDealFunc>(spec, std::move(notes));
  return inst;
}

ProtocolInstance make_lemma18_instance(const mpc::SfeSpec& spec,
                                       const std::vector<Bytes>& inputs, Rng& rng,
                                       mpc::NotesPtr notes) {
  ProtocolInstance inst;
  inst.parties = make_lemma18_parties(spec, inputs, rng);
  inst.functionality = std::make_unique<PrivOutputFunc>(spec, std::move(notes));
  return inst;
}

ProtocolInstance make_mixed_instance(const mpc::SfeSpec& spec,
                                     const std::vector<Bytes>& inputs, Rng& rng,
                                     mpc::NotesPtr notes) {
  if (spec.n % 2 == 1) {
    return make_half_gmw_instance(spec, inputs, rng, std::move(notes));
  }
  return make_optn_instance(spec, inputs, rng, std::move(notes));
}

}  // namespace fairsfe::fair
