//===- ir/Module.h - Modules and global variables --------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Module is the IR of one translation unit (the stand-in for the
/// paper's IELF files). The Linker merges modules into a whole program
/// before the inter-procedural phase.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_IR_MODULE_H
#define SLO_IR_MODULE_H

#include "ir/Function.h"

#include <memory>
#include <string>
#include <vector>

namespace slo {

/// A global variable. Its Value type is pointer-to-ValueType, like an
/// LLVM global: using a global as an operand yields its address.
class GlobalVariable : public Value {
public:
  GlobalVariable(TypeContext &Types, Type *ValueTy, std::string Name)
      : Value(VK_GlobalVariable, Types.getPointerType(ValueTy),
              std::move(Name)),
        ValueTy(ValueTy) {}

  Type *getValueType() const { return ValueTy; }

  /// Retypes the global; used only by the layout transformations.
  void setValueType(TypeContext &Types, Type *NewTy) {
    ValueTy = NewTy;
    mutateType(Types.getPointerType(NewTy));
  }

  /// Scalar integer initial value (globals are otherwise zero-initialized).
  bool hasIntInit() const { return HasIntInit; }
  int64_t getIntInit() const { return IntInit; }
  void setIntInit(int64_t V) {
    HasIntInit = true;
    IntInit = V;
  }

  static bool classof(const Value *V) {
    return V->getKind() == VK_GlobalVariable;
  }

private:
  Type *ValueTy;
  bool HasIntInit = false;
  int64_t IntInit = 0;
};

/// The IR of one translation unit, or (after linking) a whole program.
class Module {
public:
  Module(IRContext &Ctx, std::string Name) : Ctx(Ctx), Name(std::move(Name)) {}
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;
  ~Module();

  IRContext &getContext() const { return Ctx; }
  TypeContext &getTypes() const { return Ctx.getTypes(); }
  const std::string &getName() const { return Name; }

  /// Creates a function; \p IsLib marks library declarations.
  Function *createFunction(FunctionType *FnTy, const std::string &FnName,
                           bool IsLib = false);

  /// Creates a global variable of value type \p ValueTy.
  GlobalVariable *createGlobal(Type *ValueTy, const std::string &GlobalName);

  Function *lookupFunction(const std::string &FnName) const;
  GlobalVariable *lookupGlobal(const std::string &GlobalName) const;

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }
  const std::vector<std::unique_ptr<GlobalVariable>> &globals() const {
    return Globals;
  }

  /// Transfers ownership of \p F / \p G into this module (Linker use).
  Function *adoptFunction(std::unique_ptr<Function> F);
  GlobalVariable *adoptGlobal(std::unique_ptr<GlobalVariable> G);

  /// Detaches \p F from the module without destroying it; ownership passes
  /// to the caller (Linker use: the function may still have stale users
  /// that are about to be patched).
  std::unique_ptr<Function> releaseFunction(Function *F);

  /// Releases ownership of all functions and globals (Linker use).
  std::vector<std::unique_ptr<Function>> takeFunctions();
  std::vector<std::unique_ptr<GlobalVariable>> takeGlobals();

  /// Reorders the globals to \p NewOrder, which must be a permutation of
  /// the current globals. The interpreter assigns addresses in module
  /// order, so this changes data placement (the GVL phase).
  void reorderGlobals(const std::vector<GlobalVariable *> &NewOrder);

private:
  IRContext &Ctx;
  std::string Name;
  std::vector<std::unique_ptr<Function>> Funcs;
  std::vector<std::unique_ptr<GlobalVariable>> Globals;
};

} // namespace slo

#endif // SLO_IR_MODULE_H
