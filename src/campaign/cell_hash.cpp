#include "campaign/cell_hash.hpp"


namespace lockss::campaign {

uint64_t fnv1a64(const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xCBF29CE484222325ull;  // FNV offset basis
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x00000100000001B3ull;  // FNV prime
  }
  return hash;
}

uint64_t fnv1a64(const std::string& s) { return fnv1a64(s.data(), s.size()); }

std::string render_spec_canonical(const Spec& spec) {
  JsonWriter w;
  write_spec_echo(spec, /*exact=*/true, &w);
  return w.take();
}

uint64_t campaign_hash(const Spec& spec) { return fnv1a64(render_spec_canonical(spec)); }

namespace {

// Units are addressed by a canonical "<campaign-hex>/<label>#<index>{names}"
// string rather than mixing raw words, so two different coordinate sets can
// never fold to the same byte stream.
uint64_t unit_identity(uint64_t campaign_hash_value, const std::string& label,
                       uint64_t index, const std::vector<std::string>& names) {
  JsonWriter w;
  w.begin_object();
  w.key("campaign").value(campaign_hash_value);
  w.key("unit").value(label);
  w.key("index").value(index);
  w.key("values").begin_array();
  for (const std::string& name : names) {
    w.value(name);
  }
  w.end_array();
  w.end_object();
  return fnv1a64(w.take());
}

}  // namespace

uint64_t cell_identity(uint64_t campaign_hash_value, size_t cell_index,
                       const CompiledCell& cell) {
  return unit_identity(campaign_hash_value, cell.label, static_cast<uint64_t>(cell_index),
                       cell.names);
}

uint64_t baseline_identity(uint64_t campaign_hash_value) {
  // Reserved coordinates: compiled cell labels never contain '/', and no
  // cell has index UINT64_MAX.
  return unit_identity(campaign_hash_value, "/baseline", ~0ull, {});
}

}  // namespace lockss::campaign
