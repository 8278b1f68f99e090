//===- ir/Module.cpp - Modules and global variables -----------------------===//

#include "ir/Module.h"

#include "support/Error.h"

using namespace slo;

Module::~Module() {
  // Address-taken functions and globals are operands of instructions in
  // other functions; drop every operand reference before destroying any
  // value so the use-list invariants hold throughout destruction. A bulk
  // drop keeps a value with many uses from making this quadratic.
  Instruction::BulkDrop Drop;
  for (auto &F : Funcs)
    for (auto &BB : F->blocks())
      for (auto &I : BB->instructions())
        Drop.add(I.get());
  Drop.finish();
}

Function *Module::createFunction(FunctionType *FnTy,
                                 const std::string &FnName, bool IsLib) {
  assert(!lookupFunction(FnName) && "duplicate function name");
  Funcs.emplace_back(new Function(getTypes(), FnTy, FnName, IsLib));
  Function *F = Funcs.back().get();
  F->setParent(this);
  return F;
}

GlobalVariable *Module::createGlobal(Type *ValueTy,
                                     const std::string &GlobalName) {
  assert(!lookupGlobal(GlobalName) && "duplicate global name");
  Globals.emplace_back(new GlobalVariable(getTypes(), ValueTy, GlobalName));
  return Globals.back().get();
}

Function *Module::lookupFunction(const std::string &FnName) const {
  for (const auto &F : Funcs)
    if (F->getName() == FnName)
      return F.get();
  return nullptr;
}

GlobalVariable *Module::lookupGlobal(const std::string &GlobalName) const {
  for (const auto &G : Globals)
    if (G->getName() == GlobalName)
      return G.get();
  return nullptr;
}

Function *Module::adoptFunction(std::unique_ptr<Function> F) {
  assert(F && "adopting a null function");
  F->setParent(this);
  Funcs.push_back(std::move(F));
  return Funcs.back().get();
}

GlobalVariable *Module::adoptGlobal(std::unique_ptr<GlobalVariable> G) {
  assert(G && "adopting a null global");
  Globals.push_back(std::move(G));
  return Globals.back().get();
}

std::unique_ptr<Function> Module::releaseFunction(Function *F) {
  for (auto It = Funcs.begin(); It != Funcs.end(); ++It) {
    if (It->get() == F) {
      std::unique_ptr<Function> Out = std::move(*It);
      Funcs.erase(It);
      return Out;
    }
  }
  SLO_UNREACHABLE("releaseFunction: function not in this module");
}

void Module::reorderGlobals(const std::vector<GlobalVariable *> &NewOrder) {
  assert(NewOrder.size() == Globals.size() &&
         "reorderGlobals requires a full permutation");
  std::vector<std::unique_ptr<GlobalVariable>> Reordered;
  Reordered.reserve(Globals.size());
  for (GlobalVariable *Want : NewOrder) {
    bool Found = false;
    for (auto &Slot : Globals) {
      if (Slot.get() == Want) {
        Reordered.push_back(std::move(Slot));
        Found = true;
        break;
      }
    }
    if (!Found)
      SLO_UNREACHABLE("reorderGlobals: global not in this module");
  }
  Globals = std::move(Reordered);
}

std::vector<std::unique_ptr<Function>> Module::takeFunctions() {
  return std::move(Funcs);
}

std::vector<std::unique_ptr<GlobalVariable>> Module::takeGlobals() {
  return std::move(Globals);
}
