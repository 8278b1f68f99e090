//===- ir/Type.h - IR type system ------------------------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR type system. Record types carry an explicit field layout (name,
/// type, byte offset) because the whole point of the library is to create
/// new record layouts and reason about the old ones. All types are owned
/// and uniqued by a TypeContext.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_IR_TYPE_H
#define SLO_IR_TYPE_H

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace slo {

class TypeContext;
class RecordType;

/// Base class of all IR types.
///
/// Types are immutable once created (record types become immutable once
/// their body is set) and uniqued by the owning TypeContext, so pointer
/// equality is type equality.
class Type {
public:
  enum TypeKind {
    TK_Void,
    TK_Int,
    TK_Float,
    TK_Pointer,
    TK_Array,
    TK_Record,
    TK_Function,
  };

  Type(const Type &) = delete;
  Type &operator=(const Type &) = delete;
  virtual ~Type() = default;

  TypeKind getKind() const { return Kind; }

  bool isVoid() const { return Kind == TK_Void; }
  bool isInt() const { return Kind == TK_Int; }
  bool isFloat() const { return Kind == TK_Float; }
  bool isPointer() const { return Kind == TK_Pointer; }
  bool isArray() const { return Kind == TK_Array; }
  bool isRecord() const { return Kind == TK_Record; }
  bool isFunction() const { return Kind == TK_Function; }

  /// Returns the size of a value of this type in bytes. Void and function
  /// types have no size; asking for one is a programming error.
  virtual uint64_t getSize() const = 0;

  /// Returns the natural alignment of this type in bytes.
  virtual unsigned getAlign() const = 0;

  /// Returns a human-readable spelling of the type ("i32", "node*", ...).
  virtual std::string getName() const = 0;

protected:
  explicit Type(TypeKind K) : Kind(K) {}

private:
  TypeKind Kind;
};

/// The void type: function return type only.
class VoidType : public Type {
public:
  uint64_t getSize() const override;
  unsigned getAlign() const override;
  std::string getName() const override { return "void"; }

  static bool classof(const Type *T) { return T->getKind() == TK_Void; }

private:
  friend class TypeContext;
  VoidType() : Type(TK_Void) {}
};

/// Signed two's-complement integer type of 1, 8, 16, 32 or 64 bits.
/// The 1-bit form is the boolean result of comparisons; it occupies one
/// byte in memory.
class IntType : public Type {
public:
  unsigned getBits() const { return Bits; }
  uint64_t getSize() const override { return Bits <= 8 ? 1 : Bits / 8; }
  unsigned getAlign() const override {
    return static_cast<unsigned>(getSize());
  }
  std::string getName() const override {
    // Appends rather than "i" + ...: GCC 12 -O3 raises a false -Wrestrict.
    std::string Name = "i";
    return Name.append(std::to_string(Bits));
  }

  static bool classof(const Type *T) { return T->getKind() == TK_Int; }

private:
  friend class TypeContext;
  explicit IntType(unsigned Bits) : Type(TK_Int), Bits(Bits) {
    assert((Bits == 1 || Bits == 8 || Bits == 16 || Bits == 32 ||
            Bits == 64) &&
           "unsupported integer width");
  }
  unsigned Bits;
};

/// IEEE floating point type of 32 or 64 bits.
class FloatType : public Type {
public:
  unsigned getBits() const { return Bits; }
  uint64_t getSize() const override { return Bits / 8; }
  unsigned getAlign() const override { return Bits / 8; }
  std::string getName() const override {
    // Appends rather than "f" + ...: GCC 12 -O3 raises a false -Wrestrict.
    std::string Name = "f";
    return Name.append(std::to_string(Bits));
  }

  static bool classof(const Type *T) { return T->getKind() == TK_Float; }

private:
  friend class TypeContext;
  explicit FloatType(unsigned Bits) : Type(TK_Float), Bits(Bits) {
    assert((Bits == 32 || Bits == 64) && "unsupported float width");
  }
  unsigned Bits;
};

/// Pointer to another type. All pointers are 8 bytes (the target model is
/// a 64-bit Itanium-like machine).
class PointerType : public Type {
public:
  Type *getPointee() const { return Pointee; }
  uint64_t getSize() const override { return 8; }
  unsigned getAlign() const override { return 8; }
  std::string getName() const override { return Pointee->getName() + "*"; }

  static bool classof(const Type *T) { return T->getKind() == TK_Pointer; }

private:
  friend class TypeContext;
  explicit PointerType(Type *Pointee) : Type(TK_Pointer), Pointee(Pointee) {}
  Type *Pointee;
};

/// Fixed-size array type, used for global and local array variables.
/// Dynamically sized heap arrays are plain pointers.
class ArrayType : public Type {
public:
  Type *getElementType() const { return Elem; }
  uint64_t getNumElements() const { return NumElements; }
  uint64_t getSize() const override { return Elem->getSize() * NumElements; }
  unsigned getAlign() const override { return Elem->getAlign(); }
  std::string getName() const override {
    return Elem->getName() + "[" + std::to_string(NumElements) + "]";
  }

  static bool classof(const Type *T) { return T->getKind() == TK_Array; }

private:
  friend class TypeContext;
  ArrayType(Type *Elem, uint64_t NumElements)
      : Type(TK_Array), Elem(Elem), NumElements(NumElements) {}
  Type *Elem;
  uint64_t NumElements;
};

/// Function signature type.
class FunctionType : public Type {
public:
  Type *getReturnType() const { return Ret; }
  const std::vector<Type *> &getParamTypes() const { return Params; }
  unsigned getNumParams() const {
    return static_cast<unsigned>(Params.size());
  }
  Type *getParamType(unsigned I) const { return Params[I]; }

  uint64_t getSize() const override;
  unsigned getAlign() const override;
  std::string getName() const override;

  static bool classof(const Type *T) { return T->getKind() == TK_Function; }

private:
  friend class TypeContext;
  FunctionType(Type *Ret, std::vector<Type *> Params)
      : Type(TK_Function), Ret(Ret), Params(std::move(Params)) {}
  Type *Ret;
  std::vector<Type *> Params;
};

/// A single field of a record type.
struct Field {
  std::string Name;
  Type *Ty = nullptr;
  /// Byte offset within the record, assigned by RecordType::setFields.
  uint64_t Offset = 0;
  /// Position in declaration order, assigned by RecordType::setFields.
  unsigned Index = 0;
};

/// A named record (struct) type with an explicit field layout.
///
/// Records are created opaque (no body) and completed exactly once via
/// setFields, which computes offsets following the usual C layout rules
/// (each field aligned to its natural alignment, total size rounded up to
/// the max field alignment). Transformations never mutate an existing
/// record; they build new records and rewrite accesses.
class RecordType : public Type {
public:
  const std::string &getRecordName() const { return Name; }

  bool isOpaque() const { return !LayoutDone; }

  /// Completes the record with \p NewFields in declaration order, assigning
  /// offsets and indices. Must be called exactly once.
  void setFields(std::vector<Field> NewFields);

  unsigned getNumFields() const {
    assert(LayoutDone && "record has no body");
    return static_cast<unsigned>(Fields.size());
  }
  const Field &getField(unsigned I) const {
    assert(LayoutDone && I < Fields.size() && "field index out of range");
    return Fields[I];
  }
  const std::vector<Field> &fields() const {
    assert(LayoutDone && "record has no body");
    return Fields;
  }

  /// Returns the field named \p FieldName, or nullptr if there is none.
  const Field *findField(const std::string &FieldName) const;

  uint64_t getSize() const override {
    assert(LayoutDone && "record has no body");
    return Size;
  }
  unsigned getAlign() const override {
    assert(LayoutDone && "record has no body");
    return Align;
  }
  std::string getName() const override { return Name; }

  static bool classof(const Type *T) { return T->getKind() == TK_Record; }

private:
  friend class TypeContext;
  explicit RecordType(std::string Name)
      : Type(TK_Record), Name(std::move(Name)) {}

  std::string Name;
  std::vector<Field> Fields;
  uint64_t Size = 0;
  unsigned Align = 1;
  bool LayoutDone = false;
};

/// Owns and uniques all types of a program.
///
/// A single TypeContext is shared by every module of a program; record
/// types are unified by name across translation units, which is the
/// repository's stand-in for the paper's type-unified IPA symbol table.
class TypeContext {
public:
  TypeContext();
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  VoidType *getVoidType() { return VoidTy.get(); }
  IntType *getIntType(unsigned Bits);
  IntType *getI1() { return getIntType(1); }
  IntType *getI8() { return getIntType(8); }
  IntType *getI16() { return getIntType(16); }
  IntType *getI32() { return getIntType(32); }
  IntType *getI64() { return getIntType(64); }
  FloatType *getFloatType(unsigned Bits);
  FloatType *getF32() { return getFloatType(32); }
  FloatType *getF64() { return getFloatType(64); }
  PointerType *getPointerType(Type *Pointee);
  /// i8*, the IR spelling of C's void*.
  PointerType *getBytePtrType() { return getPointerType(getI8()); }
  ArrayType *getArrayType(Type *Elem, uint64_t NumElements);
  FunctionType *getFunctionType(Type *Ret, std::vector<Type *> Params);

  /// Returns the record named \p Name, creating an opaque one if needed.
  RecordType *getOrCreateRecord(const std::string &Name);

  /// Returns the record named \p Name, or nullptr if it does not exist.
  RecordType *lookupRecord(const std::string &Name) const;

  /// Creates a record with a name derived from \p BaseName, made unique by
  /// appending a numeric suffix when needed. Used by the transformations
  /// to create split/peeled parts ("node.hot", "node.cold", ...).
  RecordType *createUniqueRecord(const std::string &BaseName);

  /// All record types in creation order.
  std::vector<RecordType *> records() const;

private:
  std::unique_ptr<VoidType> VoidTy;
  std::map<unsigned, std::unique_ptr<IntType>> IntTypes;
  std::map<unsigned, std::unique_ptr<FloatType>> FloatTypes;
  std::map<Type *, std::unique_ptr<PointerType>> PointerTypes;
  std::map<std::pair<Type *, uint64_t>, std::unique_ptr<ArrayType>> ArrayTypes;
  std::vector<std::unique_ptr<FunctionType>> FunctionTypes;
  std::map<std::string, std::unique_ptr<RecordType>> Records;
  std::vector<RecordType *> RecordOrder;
};

/// Rounds \p Value up to the next multiple of \p Align.
inline uint64_t alignTo(uint64_t Value, uint64_t Align) {
  assert(Align > 0 && "alignment must be positive");
  return (Value + Align - 1) / Align * Align;
}

} // namespace slo

#endif // SLO_IR_TYPE_H
