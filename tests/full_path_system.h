// FullPathSystem: a SharedSystem that forwards every call to the system it
// wraps except the dirty-chunk record (DirtyChunks, RestoreChunks,
// UpdateFullState), which it leaves at SharedSystem's defaults: every chunk
// dirty. The exhaustive checker then restores, serializes and compares
// every chunk of every state through the wrapper, so a report taken through
// it is the full path's, to hold the wrapped system's own report to byte for
// byte (docs/PERFORMANCE.md §14).
#ifndef TESTS_FULL_PATH_SYSTEM_H_
#define TESTS_FULL_PATH_SYSTEM_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/model/shared_system.h"

namespace sep {

class FullPathSystem : public SharedSystem {
 public:
  explicit FullPathSystem(std::unique_ptr<SharedSystem> inner) : inner_(std::move(inner)) {}

  std::unique_ptr<SharedSystem> Clone() const override {
    return std::make_unique<FullPathSystem>(inner_->Clone());
  }
  int ColourCount() const override { return inner_->ColourCount(); }
  std::string ColourName(int colour) const override { return inner_->ColourName(colour); }
  int Colour() const override { return inner_->Colour(); }
  OperationId NextOperation() const override { return inner_->NextOperation(); }
  void ExecuteOperation() override { inner_->ExecuteOperation(); }
  AbstractState Abstract(int colour) const override { return inner_->Abstract(colour); }
  int UnitCount() const override { return inner_->UnitCount(); }
  int UnitColour(int unit) const override { return inner_->UnitColour(unit); }
  std::string UnitName(int unit) const override { return inner_->UnitName(unit); }
  void StepUnit(int unit) override { inner_->StepUnit(unit); }
  void InjectInput(int unit, Word value) override { inner_->InjectInput(unit, value); }
  std::vector<Word> DrainOutput(int unit) override { return inner_->DrainOutput(unit); }
  void PerturbOthers(int colour, Rng& rng) override { inner_->PerturbOthers(colour, rng); }
  bool Finished() const override { return inner_->Finished(); }
  std::optional<std::vector<Word>> FullState() const override { return inner_->FullState(); }
  void AppendFullState(std::vector<Word>& out) const override { inner_->AppendFullState(out); }
  bool RestoreFullState(std::span<const Word> state) override {
    return inner_->RestoreFullState(state);
  }
  void AppendAbstract(int colour, std::vector<Word>& out) const override {
    inner_->AppendAbstract(colour, out);
  }

 private:
  std::unique_ptr<SharedSystem> inner_;
};

}  // namespace sep

#endif  // TESTS_FULL_PATH_SYSTEM_H_
