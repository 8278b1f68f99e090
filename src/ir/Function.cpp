//===- ir/Function.cpp - Functions and arguments --------------------------===//

#include "ir/Function.h"

#include "support/Error.h"

using namespace slo;

Function::Function(TypeContext &Types, FunctionType *FnTy, std::string Name,
                   bool IsLib)
    : Value(VK_Function, Types.getPointerType(FnTy), std::move(Name)),
      FnTy(FnTy), IsLib(IsLib) {
  for (unsigned I = 0; I < FnTy->getNumParams(); ++I)
    Args.emplace_back(new Argument(FnTy->getParamType(I),
                                   "arg" + std::to_string(I), I, this));
}

Function::~Function() {
  // Drop all operand references up front so that cross-block references
  // (and references to this function's arguments) are gone before any
  // value is destroyed.
  Instruction::BulkDrop Drop;
  for (auto &BB : Blocks)
    for (auto &I : BB->instructions())
      Drop.add(I.get());
  Drop.finish();
}

BasicBlock *Function::createBlock(const std::string &BlockName) {
  Blocks.emplace_back(new BasicBlock(BlockName));
  BasicBlock *BB = Blocks.back().get();
  BB->Parent = this;
  BB->Number = static_cast<unsigned>(Blocks.size() - 1);
  return BB;
}

BasicBlock *Function::insertBlockAfter(BasicBlock *Pos,
                                       std::unique_ptr<BasicBlock> BB) {
  assert(BB && "inserting a null block");
  BB->Parent = this;
  for (auto It = Blocks.begin(); It != Blocks.end(); ++It) {
    if (It->get() == Pos) {
      BasicBlock *Out = Blocks.insert(std::next(It), std::move(BB))->get();
      renumberBlocks();
      return Out;
    }
  }
  SLO_UNREACHABLE("insertBlockAfter: position not in this function");
}

void Function::renumberBlocks() {
  for (unsigned I = 0; I < Blocks.size(); ++I)
    Blocks[I]->Number = I;
}

void Function::retype(TypeContext &Types, FunctionType *NewTy) {
  assert(NewTy->getNumParams() == FnTy->getNumParams() &&
         "retype must preserve arity");
  FnTy = NewTy;
  mutateType(Types.getPointerType(NewTy));
}
