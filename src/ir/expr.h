// The unified kernel IR (Sec. 2.3 / Fig. 1).
//
// One lowered loop-nest program represents a GPU kernel independently of the
// target API; the codegen backends print it as OpenCL C (Intel, Mali) or CUDA
// C (Nvidia), and the interpreter executes it on the host for functional
// validation. The IR is deliberately small: scalar expressions, buffer
// loads/stores, loops with schedule annotations (serial / unrolled /
// vectorized / bound to block or thread indices), conditionals, local
// accumulator variables, and fixed-size local arrays (register tiles).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dtype.h"
#include "core/error.h"

namespace igc::ir {

enum class ExprKind {
  kIntImm,
  kFloatImm,
  kVar,
  kBinary,
  kSelect,
  kLoad,
};

enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,   // integer division for int operands
  kMod,
  kMin,
  kMax,
  kLT,
  kLE,
  kGT,
  kGE,
  kEQ,
  kAnd,
  kOr,
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  ExprKind kind = ExprKind::kIntImm;
  DType dtype = DType::kInt32;

  int64_t int_val = 0;   // kIntImm
  double float_val = 0;  // kFloatImm
  std::string name;      // kVar (loop var or accumulator), kLoad (buffer or
                         // local array)
  BinOp op = BinOp::kAdd;  // kBinary
  ExprPtr a, b, c;         // operands; kSelect uses (a=cond, b=then, c=else)
};

// ---- Expression factory helpers ------------------------------------------

ExprPtr imm(int64_t v);
ExprPtr fimm(double v);
ExprPtr var(const std::string& name, DType dtype = DType::kInt32);
ExprPtr binary(BinOp op, ExprPtr a, ExprPtr b);
ExprPtr add(ExprPtr a, ExprPtr b);
ExprPtr sub(ExprPtr a, ExprPtr b);
ExprPtr mul(ExprPtr a, ExprPtr b);
ExprPtr div(ExprPtr a, ExprPtr b);
ExprPtr mod(ExprPtr a, ExprPtr b);
ExprPtr min_e(ExprPtr a, ExprPtr b);
ExprPtr max_e(ExprPtr a, ExprPtr b);
ExprPtr lt(ExprPtr a, ExprPtr b);
ExprPtr lte(ExprPtr a, ExprPtr b);
ExprPtr logical_and(ExprPtr a, ExprPtr b);
ExprPtr select(ExprPtr cond, ExprPtr then_v, ExprPtr else_v);
/// Load `buffer[index]` of element type `dtype`; `buffer` names a kernel
/// parameter or a local array (make_decl_array).
ExprPtr load(const std::string& buffer, ExprPtr index,
             DType dtype = DType::kFloat32);

// ---- Statements -----------------------------------------------------------

/// How a loop axis is realized on the device.
enum class IterKind {
  kSerial,
  kUnrolled,
  kVectorized,
  kBlockX,
  kBlockY,
  kBlockZ,
  kThreadX,
  kThreadY,
  kThreadZ,
};

/// True for axes realized as block/thread indices rather than loops.
bool is_bound(IterKind k);

struct IterVar {
  std::string name;
  int64_t extent = 1;
  IterKind kind = IterKind::kSerial;
};

enum class StmtKind {
  kFor,       // loop over an IterVar
  kStore,     // buffer[index] = value (a parameter or a local array)
  kIf,        // if (cond) { then_body }
  kDeclLocal, // local scalar: <dtype> name = init
  kDeclArray, // local array: <dtype> name[extent], addressed by kLoad/kStore
  kAssign,    // name = value (local scalar)
  kBarrier,   // work-group barrier
  kComment,
};

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

struct Stmt {
  StmtKind kind = StmtKind::kComment;

  IterVar iv;                  // kFor
  std::vector<StmtPtr> body;   // kFor, kIf
  std::string buffer;          // kStore (buffer), kDeclLocal/kDeclArray/kAssign
                               // (local name)
  ExprPtr index;               // kStore
  ExprPtr value;               // kStore, kDeclLocal (init), kAssign
  ExprPtr cond;                // kIf
  DType dtype = DType::kFloat32;  // kDeclLocal, kDeclArray
  int64_t extent = 0;          // kDeclArray (elements)
  std::string text;            // kComment
};

StmtPtr make_for(IterVar iv, std::vector<StmtPtr> body);
StmtPtr make_store(const std::string& buffer, ExprPtr index, ExprPtr value);
StmtPtr make_if(ExprPtr cond, std::vector<StmtPtr> body);
StmtPtr make_decl_local(const std::string& name, DType dtype, ExprPtr init);
/// A per-block (per-thread on a device) array of `extent` elements with
/// undefined initial contents: what TVM's cache_write(C, "local") lowers to.
/// Later kLoad/kStore statements in the same scope address it by `name`.
StmtPtr make_decl_array(const std::string& name, DType dtype, int64_t extent);
StmtPtr make_assign(const std::string& name, ExprPtr value);
StmtPtr make_barrier();
StmtPtr make_comment(const std::string& text);

/// A kernel parameter: a flat global buffer.
struct BufferParam {
  std::string name;
  DType dtype = DType::kFloat32;
  int64_t size = 0;  // elements
  bool is_output = false;
};

/// A fully lowered kernel: parameters plus the scheduled loop nest.
struct LoweredKernel {
  std::string name;
  std::vector<BufferParam> params;
  std::vector<StmtPtr> body;

  /// Extents of the grid/block axes referenced anywhere in the body
  /// (product of bound itervars per kind). Unreferenced axes report 1.
  int64_t grid_size() const;
  int64_t block_size() const;
};

}  // namespace igc::ir
