// Data-plane byte accounting: every site that hands a bulk payload to a
// consumer charges either `bytes_moved` (a real duplication — payload
// pushed through the transport, materialized for a local dependency
// read, or cached on a fetching worker) or `bytes_referenced` (a
// pass-by-reference hand-off — proxy token passes, depot aliases,
// zero-copy same-node dereferences). Clients and workers count both in
// their counter blocks under these names.
//
// The split is what the fig3 A/B measures: the copy plane charges every
// scatter push and every dependency materialization as moved; the proxy
// plane only moves bytes when a consumer on another node first
// dereferences a handle. Wire bytes (TransferStats) are reported
// alongside; this pair is the ownership-model view.
#pragma once

namespace deisa::obs {

/// Payload bytes physically duplicated for a consumer.
inline constexpr const char* kBytesMoved = "dataplane.bytes_moved";
/// Payload bytes handed over by reference (no duplication).
inline constexpr const char* kBytesReferenced = "dataplane.bytes_referenced";

}  // namespace deisa::obs
