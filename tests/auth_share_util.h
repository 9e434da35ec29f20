// Test helper: an authenticated 2-of-2 sharing as two parsed shares, dealt
// by deal_auth_share2.
#pragma once

#include "crypto/auth_share.h"
#include "crypto/rng.h"

namespace fairsfe {

struct AuthSharing2 {
  AuthShare2 share1;  ///< held by p₁
  AuthShare2 share2;  ///< held by p₂
};

inline AuthSharing2 deal_shares(ByteView secret, Rng& rng) {
  Writer w1, w2;
  deal_auth_share2(secret, rng, w1, w2);
  // Each writer holds blob(share): the share follows its 4-byte length.
  return {*AuthShare2::from_bytes(ByteView(w1.bytes()).subspan(4)),
          *AuthShare2::from_bytes(ByteView(w2.bytes()).subspan(4))};
}

}  // namespace fairsfe
