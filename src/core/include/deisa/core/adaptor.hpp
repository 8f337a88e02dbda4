// The DEISA adaptor: the analytics-side half of the coupling (the
// `Deisa` object of Listing 2). It receives the virtual arrays from the
// rank-0 bridge, lets the client slice them, validates and signs the
// contract, and materializes the selected data as a distributed array of
// external tasks on which whole multi-timestep graphs can be submitted.
#pragma once

#include <map>

#include "deisa/array/darray.hpp"
#include "deisa/core/contract.hpp"
#include "deisa/dts/client.hpp"

namespace deisa::core {

/// The adaptor's counters (its obs::CounterBlock).
enum class AdaptorCounter : std::uint8_t {
  kExternalFutures,  // external tasks created for the signed contract
  kCount,
};

inline const char* metric_name(AdaptorCounter c) {
  using enum AdaptorCounter;
  switch (c) {
    case kExternalFutures: return "adaptor.external_futures";
    case kCount: break;
  }
  return "?";
}

class Adaptor {
public:
  Adaptor(dts::Client& client, Mode mode);

  dts::Client& client() { return *client_; }
  Mode mode() const { return mode_; }

  /// Wait for the rank-0 bridge to publish the deisa virtual arrays
  /// (Listing 2: Deisa.get_deisa_arrays()).
  exec::Co<std::vector<VirtualArray>> get_deisa_arrays();

  /// Record a selection on array `name` (Listing 2's `arrays["global_t"]
  /// [...]` — the [] operator). Must be called between get_deisa_arrays()
  /// and validate_contract().
  void select(const std::string& name, array::Selection selection);
  /// Convenience: select everything (the `[...]` of Listing 2).
  void select_all(const std::string& name);

  /// Validate the selections against the offered arrays, create the
  /// external tasks (DEISA2/3), and send the filters back to the bridges
  /// (step 1 of Figure 1, "Sign contracts"). Returns one distributed
  /// array per selected virtual array.
  exec::Co<std::map<std::string, array::DArray>> validate_contract();

  // ---- DEISA1 legacy path ----
  /// Push the per-rank selections into the per-rank distributed queues
  /// (nbr_ranks messages, unlike the single contract variable).
  exec::Co<std::map<std::string, array::DArray>> deisa1_publish_selection(
      int nranks);
  /// Wait until every rank reported completion of the current step.
  exec::Co<void> deisa1_wait_step(int nranks);

  const Contract& contract() const { return contract_; }

private:
  dts::Client* client_;
  Mode mode_;
  std::vector<VirtualArray> offered_;
  bool got_arrays_ = false;
  Contract contract_;
  bool signed_ = false;
  obs::CounterBlock<AdaptorCounter> counters_;
};

}  // namespace deisa::core
