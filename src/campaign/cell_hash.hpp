// Content-addressed campaign cells.
//
// Crash-resumable execution (campaign/journal.hpp) needs a stable identity
// for every unit of work: a journal written by one process must be
// readable by a resume with a different worker count, binary build, or
// host, and must be rejected when the spec itself changed. The identity is
// a 64-bit FNV-1a hash over a *canonical* JSON rendering of the semantic
// spec fields — canonical means a fixed key order and fixed number
// formatting (%.17g round-trip), so the hash is byte-stable against key
// reordering, comments, and whitespace in the campaign file, and
// deterministic across platforms (no pointer values, no locale, no
// iteration-order dependence).
//
// The canonical form is the manifest's spec echo (campaign::write_spec_echo)
// with every scalar written as the value the spec stores — a SimTime as
// integer nanoseconds, never as a days double — so the hash covers exactly
// what the manifest echoes: every section and scalar field, defaults
// included, the adversary pipeline, and the sweep axes in grid order.
// Cosmetic fields (description, output file names, figure layout) are in
// neither: re-plotting the same cells is reuse, not new work. Any change to
// the rendering changes every campaign's hash, so --resume refuses journals
// written before it as belonging to a different campaign spec.
//
// Per-cell identity extends the campaign hash with the cell's coordinates
// (index, label, axis values) plus the replication parameters, so "cell 7
// of this exact spec" names the same computation forever. The baseline
// unit uses a reserved label that no compiled cell can collide with.
#ifndef LOCKSS_CAMPAIGN_CELL_HASH_HPP_
#define LOCKSS_CAMPAIGN_CELL_HASH_HPP_

#include <cstdint>
#include <string>

#include "campaign/spec.hpp"

namespace lockss::campaign {

// 64-bit FNV-1a over bytes: tiny, dependency-free, identical on every
// platform and compiler (unlike std::hash).
uint64_t fnv1a64(const void* data, size_t len);
uint64_t fnv1a64(const std::string& s);

// The canonical JSON rendering of a spec's semantic fields (fixed key
// order, %.17g numbers, exact stored values). Exposed so tests can pin
// byte-stability.
std::string render_spec_canonical(const Spec& spec);

// Identity of the whole campaign: fnv1a64(render_spec_canonical(spec)).
uint64_t campaign_hash(const Spec& spec);

// Identity of one compiled cell within a campaign.
uint64_t cell_identity(uint64_t campaign_hash_value, size_t cell_index,
                       const CompiledCell& cell);

// Identity of the adversary-free baseline unit.
uint64_t baseline_identity(uint64_t campaign_hash_value);

}  // namespace lockss::campaign

#endif  // LOCKSS_CAMPAIGN_CELL_HASH_HPP_
