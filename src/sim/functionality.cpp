#include "sim/functionality.h"

namespace fairsfe::sim {

Bytes encode_func_input(ByteView input) {
  Writer w;
  w.u8(functag::kInput).blob(input);
  return w.take();
}

std::optional<Bytes> decode_func_input(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != functag::kInput) return std::nullopt;
  const auto body = r.blob();
  if (!body || !r.at_end()) return std::nullopt;
  return body;
}

FuncOutputWriter::FuncOutputWriter(std::size_t body_size) {
  w_.reserve(kHeader + body_size).u8(functag::kOutput).u32(0);
}

Bytes FuncOutputWriter::take() {
  Bytes payload = w_.take();
  write_le32(payload.data() + 1, static_cast<std::uint32_t>(payload.size() - kHeader));
  return payload;
}

Bytes encode_func_output(ByteView output) {
  FuncOutputWriter f(output.size());
  f.body().raw(output);
  return f.take();
}

Bytes encode_func_abort() {
  Writer w;
  w.u8(functag::kAbort);
  return w.take();
}

std::optional<ByteView> decode_func_output(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  // Abort frames carry functag::kAbort and decode to nullopt here; every
  // party treats that as the functionality's abort signal.
  // ANALYZE-HANDLES(func_abort)
  if (!tag || *tag != functag::kOutput) return std::nullopt;
  const auto body = r.blob_view();
  if (!body || !r.at_end()) return std::nullopt;
  return body;
}

bool is_func_abort(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  return tag && *tag == functag::kAbort && r.at_end();
}

}  // namespace fairsfe::sim
