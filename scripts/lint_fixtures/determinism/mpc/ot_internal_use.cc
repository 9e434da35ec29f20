// direct-ot-access is scoped to everything OUTSIDE src/mpc: this fixture
// lints as src/mpc/ot_internal_use.cc, where the hub is the implementation
// domain (the OtDrivenProvider runs its rounds, the factories construct it),
// so neither line below is a finding. The hub is also where the OT wire
// format is parsed, so this file declares that decode side the way
// src/mpc/ot.cpp does, and the encode sites in this universe are not orphans.

void internal_hub_use() {
  auto* hub = new fairsfe::mpc::OtHub();
  auto msg = fairsfe::mpc::encode_ot_send(7, true, false);
  (void)hub;
  (void)msg;
}

void internal_hub_parse() {
  // ANALYZE-HANDLES(ot_send)
}
