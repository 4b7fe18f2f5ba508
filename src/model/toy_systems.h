// Small hand-built SharedSystem implementations with known security
// status, shared by tests and benches. They serve two purposes:
//   * validating the checkers themselves (a verifier that cannot refute a
//     known-leaky system proves nothing by passing a kernel);
//   * exercising the model interface independent of the machine stack.
#ifndef SRC_MODEL_TOY_SYSTEMS_H_
#define SRC_MODEL_TOY_SYSTEMS_H_

#include <memory>
#include <string>

#include "src/model/shared_system.h"

namespace sep {

// Deliberate I/O defects of TinyTwoUserSystem, each refuted by a different
// condition: an input leak mixes the other colour's counter into the inbox
// an input fills (condition 3), an output leak mixes it into the word a unit
// step emits (condition 5).
enum class TinyDefect { kNone, kInputLeak, kOutputLeak };

// Two users with 2-bit private counters and 2-bit I/O cells, alternating
// scheduler, fully finite state space (a few thousand reachable states).
// `leak` couples the counters through the operation; `defect` adds an I/O
// leak.
class TinyTwoUserSystem : public SharedSystem {
 public:
  explicit TinyTwoUserSystem(bool leak, TinyDefect defect = TinyDefect::kNone)
      : leak_(leak), defect_(defect) {}

  std::unique_ptr<SharedSystem> Clone() const override {
    return std::make_unique<TinyTwoUserSystem>(*this);
  }

  int ColourCount() const override { return 2; }
  std::string ColourName(int colour) const override { return colour == 0 ? "red" : "black"; }
  int Colour() const override { return turn_; }

  OperationId NextOperation() const override {
    return OperationId{OperationId::Kind::kInstruction,
                       {static_cast<Word>(counter_[turn_] & 1)}};
  }

  void ExecuteOperation() override {
    const int c = turn_;
    counter_[c] = static_cast<Word>((counter_[c] + 1) & 0x3);
    if (leak_ && counter_[1 - c] != 0) {
      counter_[c] = static_cast<Word>((counter_[c] + counter_[1 - c]) & 0x3);
    }
    turn_ = 1 - turn_;
  }

  AbstractState Abstract(int colour) const override {
    return AbstractState{{counter_[colour], cell_[colour], inbox_[colour]}};
  }

  int UnitCount() const override { return 2; }
  int UnitColour(int unit) const override { return unit; }
  std::string UnitName(int unit) const override { return "cell" + std::to_string(unit); }

  void StepUnit(int unit) override {
    if (inbox_[unit] != 0) {
      out_[unit] = defect_ == TinyDefect::kOutputLeak
                       ? static_cast<Word>((cell_[unit] + counter_[1 - unit]) & 0x3)
                       : cell_[unit];
      has_out_[unit] = true;
      cell_[unit] = static_cast<Word>(inbox_[unit] & 0x3);
      inbox_[unit] = 0;
    }
  }

  void InjectInput(int unit, Word value) override {
    if (defect_ == TinyDefect::kInputLeak) {
      value = static_cast<Word>(value + counter_[1 - unit]);
    }
    inbox_[unit] = static_cast<Word>(value & 0x3);
  }

  std::vector<Word> DrainOutput(int unit) override {
    if (!has_out_[unit]) {
      return {};
    }
    has_out_[unit] = false;
    return {out_[unit]};
  }

  void PerturbOthers(int colour, Rng& rng) override {
    const int other = 1 - colour;
    counter_[other] = static_cast<Word>(rng.Next() & 0x3);
    cell_[other] = static_cast<Word>(rng.Next() & 0x3);
    inbox_[other] = static_cast<Word>(rng.Next() & 0x3);
    has_out_[other] = false;
  }

  std::optional<std::vector<Word>> FullState() const override {
    return std::vector<Word>{static_cast<Word>(turn_),
                             counter_[0],
                             counter_[1],
                             cell_[0],
                             cell_[1],
                             inbox_[0],
                             inbox_[1],
                             out_[0],
                             out_[1],
                             static_cast<Word>(has_out_[0]),
                             static_cast<Word>(has_out_[1])};
  }

  void AppendFullState(std::vector<Word>& out) const override {
    const Word words[kFullStateWords] = {static_cast<Word>(turn_),
                                         counter_[0],
                                         counter_[1],
                                         cell_[0],
                                         cell_[1],
                                         inbox_[0],
                                         inbox_[1],
                                         out_[0],
                                         out_[1],
                                         static_cast<Word>(has_out_[0]),
                                         static_cast<Word>(has_out_[1])};
    out.insert(out.end(), words, words + kFullStateWords);
  }

  bool RestoreFullState(std::span<const Word> state) override {
    if (state.size() != kFullStateWords) {
      return false;
    }
    turn_ = static_cast<int>(state[0]);
    counter_[0] = state[1];
    counter_[1] = state[2];
    cell_[0] = state[3];
    cell_[1] = state[4];
    inbox_[0] = state[5];
    inbox_[1] = state[6];
    out_[0] = state[7];
    out_[1] = state[8];
    has_out_[0] = state[9] != 0;
    has_out_[1] = state[10] != 0;
    return true;
  }

  void AppendAbstract(int colour, std::vector<Word>& out) const override {
    out.insert(out.end(), {counter_[colour], cell_[colour], inbox_[colour]});
  }

 private:
  static constexpr std::size_t kFullStateWords = 11;

  bool leak_;
  TinyDefect defect_;
  int turn_ = 0;
  Word counter_[2] = {0, 0};
  Word cell_[2] = {0, 0};
  Word inbox_[2] = {0, 0};
  Word out_[2] = {0, 0};
  bool has_out_[2] = {false, false};
};

}  // namespace sep

#endif  // SRC_MODEL_TOY_SYSTEMS_H_
