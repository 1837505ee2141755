// Binary serialization of converted SnnModels.
//
// The deployment artefact of the pipeline is the integer SnnModel; this
// module gives it a stable on-disk format (magic + version + little-
// endian fields) so converted models can be trained once and deployed
// to the simulator (or, in the paper's setting, shipped to the PYNQ
// host) without rerunning the pipeline. Round-trips are bit-exact and
// validated on load.
#pragma once

#include <iosfwd>
#include <string>

#include "snn/model.hpp"
#include "snn/spike.hpp"

namespace sia::snn {

/// Current format version. Readers reject newer versions.
inline constexpr std::uint32_t kSnnFormatVersion = 1;

/// Spike-train container format version (independent of the model's).
inline constexpr std::uint32_t kSpikeTrainFormatVersion = 1;

/// Serialize to a stream; throws std::runtime_error on I/O failure.
void save_model(const SnnModel& model, std::ostream& out);

/// Deserialize from a stream; throws std::runtime_error on bad magic,
/// unsupported version, truncation, a vector length the stream cannot
/// hold (rejected before allocating it), or validation failure.
[[nodiscard]] SnnModel load_model(std::istream& in);

/// File convenience wrappers.
void save_model_file(const SnnModel& model, const std::string& path);
[[nodiscard]] SnnModel load_model_file(const std::string& path);

/// Serialize an encoded spike train: geometry once, then each step's
/// packed 64-bit words verbatim (the SpikeMap raw() representation).
/// Round-trips are bit-exact.
void save_train(const SpikeTrain& train, std::ostream& out);

/// Deserialize a spike train; throws std::runtime_error on bad magic,
/// unsupported version, truncation, a header claiming more steps or
/// words than the stream holds (rejected before allocating them), or
/// geometry/word-count inconsistency.
[[nodiscard]] SpikeTrain load_train(std::istream& in);

}  // namespace sia::snn
