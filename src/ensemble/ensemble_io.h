#ifndef EDDE_ENSEMBLE_ENSEMBLE_IO_H_
#define EDDE_ENSEMBLE_ENSEMBLE_IO_H_

#include <string>

#include "ensemble/ensemble_model.h"
#include "ensemble/trainer.h"
#include "utils/status.h"

namespace edde {

/// On-disk element type of saved parameter tensors.
///   kFloat32 — bit-exact round trip (default; loaded predictions are
///              identical to the saved model's).
///   kFloat16 — IEEE binary16 with round-to-nearest-even, ~2× smaller
///              artifacts at ≤ 2^-11 relative weight error. In-memory
///              compute stays float32 either way.
enum class ArtifactDtype : uint32_t {
  kFloat32 = 0,
  kFloat16 = 1,
};

struct EnsembleSaveOptions {
  ArtifactDtype dtype = ArtifactDtype::kFloat32;
};

/// Serializes a trained ensemble — every member's parameters plus its
/// combination weight α — into one binary file.
///
/// Format v3: a magic word followed by CRC-framed sections (utils/
/// durable_io): one header section (member count, dtype, the input feature
/// dim and class count derived from the first member) and one section per
/// member. The file is committed atomically; a torn or bit-flipped file is
/// detected by the frame CRCs on load.
Status SaveEnsemble(const EnsembleModel& ensemble, const std::string& path,
                    const EnsembleSaveOptions& options);

inline Status SaveEnsemble(const EnsembleModel& ensemble,
                           const std::string& path) {
  return SaveEnsemble(ensemble, path, EnsembleSaveOptions());
}

/// What an ensemble artifact says about itself, readable without
/// constructing any member module. The file also gets a full CRC scan of
/// every section (utils/durable_io::VerifyFramedSections), so a torn or
/// bit-flipped artifact is rejected here — cheaply — before a caller
/// commits to the expensive LoadEnsemble. This is the validation gate the
/// serving layer runs ahead of a hot model swap.
struct EnsembleArtifactInfo {
  uint32_t format = 0;  ///< 3 (CRC-framed; the only format read)
  int64_t members = 0;
  ArtifactDtype dtype = ArtifactDtype::kFloat32;
  int64_t input_dim = 0;
  int64_t num_classes = 0;
};

Result<EnsembleArtifactInfo> ReadEnsembleArtifactInfo(const std::string& path);

/// The input feature dim / class count implied by a live ensemble's member
/// weight shapes (same derivation SaveEnsemble records in the v3 header).
/// 0 when the first member has no rank ≥ 2 parameter.
int64_t DerivedInputDim(const EnsembleModel& ensemble);
int64_t DerivedNumClasses(const EnsembleModel& ensemble);

/// Restores an ensemble saved with SaveEnsemble. Fresh member modules are
/// created through `factory` (which must build the same architecture the
/// ensemble was trained with); parameter-shape mismatches are rejected, and
/// a v3 header whose recorded feature dim or class count disagrees with the
/// loaded members' actual weight shapes is rejected as Corruption.
Result<EnsembleModel> LoadEnsemble(const std::string& path,
                                   const ModelFactory& factory);

}  // namespace edde

#endif  // EDDE_ENSEMBLE_ENSEMBLE_IO_H_
