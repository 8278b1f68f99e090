//===- ir/IRPrinter.cpp - Textual IR dumping ------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/Module.h"
#include "support/Casting.h"
#include "support/Format.h"

#include <map>
#include <sstream>

using namespace slo;

namespace {

/// Assigns stable textual names (%name or %N) to the values of one
/// function while printing it.
class FunctionPrinter {
public:
  explicit FunctionPrinter(const Function &F) : F(F) {}

  std::string print() {
    std::ostringstream OS;
    OS << (F.isDeclaration() ? "declare " : "define ")
       << F.getReturnType()->getName() << " @" << F.getName() << "(";
    for (unsigned I = 0; I < F.getNumArgs(); ++I) {
      if (I)
        OS << ", ";
      Argument *A = F.getArg(I);
      OS << A->getType()->getName() << " " << ref(A);
    }
    OS << ")";
    if (F.isLibFunction())
      OS << " lib";
    if (F.isDeclaration()) {
      OS << "\n";
      return OS.str();
    }
    OS << " {\n";
    for (const auto &BB : F.blocks()) {
      OS << blockName(BB.get()) << ":\n";
      for (const auto &I : BB->instructions())
        OS << "  " << printInst(*I) << "\n";
    }
    OS << "}\n";
    return OS.str();
  }

private:
  std::string blockName(const BasicBlock *BB) {
    return BB->getName() + "." + std::to_string(BB->getNumber());
  }

  std::string ref(const Value *V) {
    switch (V->getKind()) {
    case Value::VK_ConstantInt: {
      const auto *C = cast<ConstantInt>(V);
      if (C->isSizeOf())
        return "sizeof(" + C->getSizeOfRecord()->getRecordName() + ")";
      return std::to_string(C->getValue());
    }
    case Value::VK_ConstantFloat:
      return formatString("%g", cast<ConstantFloat>(V)->getValue());
    case Value::VK_ConstantNull:
      return "null";
    case Value::VK_GlobalVariable:
      return "@" + V->getName();
    case Value::VK_Function:
      return "@" + V->getName();
    case Value::VK_Argument:
    case Value::VK_Instruction: {
      auto It = Names.find(V);
      if (It != Names.end())
        return It->second;
      // Appends rather than "%" + ...: GCC 12 -O3 raises a false
      // -Wrestrict on a literal + std::string.
      std::string N = "%";
      N += V->getName().empty() ? std::to_string(NextId++) : V->getName();
      // Disambiguate duplicate source names.
      if (UsedNames.count(N))
        N.append(".").append(std::to_string(NextId++));
      UsedNames.insert({N, V});
      Names[V] = N;
      return N;
    }
    }
    return "<?>";
  }

  std::string printInst(const Instruction &I) {
    std::ostringstream OS;
    if (!I.getType()->isVoid())
      OS << ref(&I) << " = ";
    OS << Instruction::getOpcodeName(I.getOpcode());
    if (const auto *FA = dyn_cast<FieldAddrInst>(&I)) {
      OS << " " << ref(FA->getBase()) << ", "
         << FA->getRecord()->getRecordName() << "::"
         << FA->getField().Name;
      return OS.str();
    }
    if (const auto *C = dyn_cast<CallInst>(&I)) {
      OS << " @" << C->getCallee()->getName() << "(";
      for (unsigned A = 0; A < C->getNumArgs(); ++A) {
        if (A)
          OS << ", ";
        OS << ref(C->getArg(A));
      }
      OS << ")";
      return OS.str();
    }
    if (const auto *B = dyn_cast<BrInst>(&I)) {
      OS << " " << blockName(B->getTarget());
      return OS.str();
    }
    if (const auto *CB = dyn_cast<CondBrInst>(&I)) {
      OS << " " << ref(CB->getCondition()) << ", "
         << blockName(CB->getTrueTarget()) << ", "
         << blockName(CB->getFalseTarget());
      return OS.str();
    }
    if (const auto *A = dyn_cast<AllocaInst>(&I)) {
      OS << " " << A->getAllocatedType()->getName();
      return OS.str();
    }
    if (const auto *C = dyn_cast<CastInst>(&I)) {
      OS << " " << ref(C->getCastOperand()) << " to "
         << C->getType()->getName();
      return OS.str();
    }
    for (unsigned Op = 0; Op < I.getNumOperands(); ++Op) {
      OS << (Op ? ", " : " ") << ref(I.getOperand(Op));
    }
    return OS.str();
  }

  const Function &F;
  std::map<const Value *, std::string> Names;
  std::map<std::string, const Value *> UsedNames;
  unsigned NextId = 0;
};

} // namespace

std::string slo::printRecordLayout(const RecordType &Rec) {
  std::ostringstream OS;
  OS << "struct " << Rec.getRecordName() << " { // size "
     << Rec.getSize() << ", align " << Rec.getAlign() << "\n";
  for (const Field &F : Rec.fields())
    OS << formatString("  [%2u] off %3llu: %s %s\n", F.Index,
                       static_cast<unsigned long long>(F.Offset),
                       F.Ty->getName().c_str(), F.Name.c_str());
  OS << "}\n";
  return OS.str();
}

std::string slo::printFunction(const Function &F) {
  return FunctionPrinter(F).print();
}

std::string slo::printModule(const Module &M) {
  std::ostringstream OS;
  OS << "; module " << M.getName() << "\n\n";
  for (RecordType *R : M.getTypes().records())
    if (!R->isOpaque())
      OS << printRecordLayout(*R);
  OS << "\n";
  for (const auto &G : M.globals()) {
    OS << "@" << G->getName() << " : " << G->getValueType()->getName();
    if (G->hasIntInit())
      OS << " = " << G->getIntInit();
    OS << "\n";
  }
  OS << "\n";
  for (const auto &F : M.functions())
    OS << printFunction(*F) << "\n";
  return OS.str();
}
