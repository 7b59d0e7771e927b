// Host C++ printer for the unified IR (the JIT backend's codegen target).
//
// Where the OpenCL/CUDA printers map block/thread-bound axes onto the
// device's launch grid, the host target has neither work-groups nor a
// runtime grid: every block-bound axis is folded into one flattened block
// index, and the emitted function takes a [blk_lo, blk_hi) range so the
// dispatcher can split the grid across host threads (disjoint blocks write
// disjoint outputs, so any partition is race-free). Thread-bound axes and
// every scheduling annotation (unroll, vectorize) become plain counted
// loops: the host compiler's own unroller/vectorizer takes over at -O3.
// A local array (kDeclArray) prints as a plain C array in its block's
// scope; with constant extents and loop bounds, the compiler unrolls the
// loops over it and keeps a register tile's accumulators in vector
// registers.
//
// Numeric contract (relied on by the executor's bit-identity guarantee):
// float expressions stay in single precision (locals are `float`, literals
// carry the f suffix), min/max print as the `(a < b ? b : a)` ternaries that
// define std::min/std::max, and integer scalars are `long long` so index
// arithmetic cannot overflow. With contraction disabled at compile time the
// emitted arithmetic is instruction-for-instruction the reference
// operators' float sequence, whatever vector ISA the module targets.
// Non-finite literals use the GCC/Clang builtins (__builtin_inff,
// __builtin_nanf), since the module includes no headers.
#include <cinttypes>
#include <cmath>
#include <sstream>

#include "codegen/codegen.h"
#include "codegen/float_literal.h"
#include "core/error.h"

namespace igc::codegen {
namespace {

using ir::BinOp;
using ir::ExprKind;
using ir::ExprPtr;
using ir::IterKind;
using ir::IterVar;
using ir::LoweredKernel;
using ir::StmtKind;
using ir::StmtPtr;

bool is_block_axis(IterKind k) {
  return k == IterKind::kBlockX || k == IterKind::kBlockY ||
         k == IterKind::kBlockZ;
}

/// Collects block-bound itervars in nesting order (outermost first).
void collect_block_axes(const std::vector<StmtPtr>& body,
                        std::vector<IterVar>* axes) {
  for (const StmtPtr& s : body) {
    if (s->kind == StmtKind::kFor && is_block_axis(s->iv.kind)) {
      axes->push_back(s->iv);
    }
    if (s->kind == StmtKind::kFor || s->kind == StmtKind::kIf) {
      collect_block_axes(s->body, axes);
    }
  }
}

class CppPrinter {
 public:
  explicit CppPrinter(const LoweredKernel& k) : k_(k) {}

  std::string print() {
    collect_block_axes(k_.body, &block_axes_);
    os_ << "// generated by igc from the unified IR (host C++ target)\n";
    os_ << "extern \"C\" void " << k_.name
        << "(float* const* __restrict__ bufs, long long __blk_lo, "
           "long long __blk_hi) {\n";
    indent_ = 1;
    for (size_t i = 0; i < k_.params.size(); ++i) {
      const auto& p = k_.params[i];
      IGC_CHECK(p.dtype == DType::kFloat32)
          << "host codegen emits float32 buffers only, got param " << p.name;
      if (p.is_output) {
        line("float* __restrict__ " + p.name + " = bufs[" + std::to_string(i) +
             "];");
      } else {
        line("const float* __restrict__ " + p.name + " = bufs[" +
             std::to_string(i) + "];");
      }
    }
    line("for (long long __blk = __blk_lo; __blk < __blk_hi; ++__blk) {");
    ++indent_;
    decompose_block_index();
    print_seq(k_.body);
    --indent_;
    line("}");
    os_ << "}\n";
    return os_.str();
  }

 private:
  /// Defines every block-bound axis from the flattened __blk, innermost
  /// (fastest-varying) axis first — the same linearization grid_size()
  /// implies and the dispatcher iterates.
  void decompose_block_index() {
    if (block_axes_.empty()) return;
    line("long long __r = __blk;");
    for (size_t i = block_axes_.size(); i-- > 1;) {
      const IterVar& iv = block_axes_[i];
      line("const long long " + iv.name + " = __r % " +
           std::to_string(iv.extent) + "LL; __r /= " +
           std::to_string(iv.extent) + "LL;");
    }
    line("const long long " + block_axes_.front().name + " = __r;");
  }

  void line(const std::string& s) {
    for (int i = 0; i < indent_; ++i) os_ << "  ";
    os_ << s << "\n";
  }

  void print_seq(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& s : body) print_stmt(s);
  }

  void print_stmt(const StmtPtr& s) {
    switch (s->kind) {
      case StmtKind::kFor: {
        if (is_block_axis(s->iv.kind)) {
          // Axis variable already defined from __blk; the loop dissolves.
          print_seq(s->body);
          return;
        }
        // Thread-bound, serial, unrolled, and vectorized axes are all plain
        // loops on the host; -O3 unrolls/vectorizes what profits.
        line("for (long long " + s->iv.name + " = 0; " + s->iv.name + " < " +
             std::to_string(s->iv.extent) + "LL; ++" + s->iv.name + ") {");
        ++indent_;
        print_seq(s->body);
        --indent_;
        line("}");
        return;
      }
      case StmtKind::kStore:
        line(s->buffer + "[" + expr(s->index) + "] = " + expr(s->value) + ";");
        return;
      case StmtKind::kIf:
        line("if (" + expr(s->cond) + ") {");
        ++indent_;
        print_seq(s->body);
        --indent_;
        line("}");
        return;
      case StmtKind::kDeclLocal:
        line(std::string(s->dtype == DType::kFloat32 ? "float " : "long long ") +
             s->buffer + " = " + expr(s->value) + ";");
        return;
      case StmtKind::kDeclArray:
        line(std::string(s->dtype == DType::kFloat32 ? "float " : "long long ") +
             s->buffer + "[" + std::to_string(s->extent) + "];");
        return;
      case StmtKind::kAssign:
        line(s->buffer + " = " + expr(s->value) + ";");
        return;
      case StmtKind::kBarrier:
        IGC_CHECK(false) << "host kernels cannot contain barriers: " << k_.name;
        return;
      case StmtKind::kComment:
        line("// " + s->text);
        return;
    }
  }

  /// A single-precision literal for `v`. Infinities and NaN have no decimal
  /// spelling; GCC and Clang both provide the builtins, and the module
  /// includes no headers.
  static std::string fimm_str(double v) {
    if (std::isnan(v)) return "__builtin_nanf(\"\")";
    if (std::isinf(v)) return v > 0 ? "__builtin_inff()" : "(-__builtin_inff())";
    return finite_float_literal(v);
  }

  std::string expr(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kIntImm:
        return std::to_string(e->int_val) + "LL";
      case ExprKind::kFloatImm:
        return fimm_str(e->float_val);
      case ExprKind::kVar:
        return e->name;
      case ExprKind::kBinary:
        return binary(e);
      case ExprKind::kSelect:
        return "(" + expr(e->a) + " ? " + expr(e->b) + " : " + expr(e->c) + ")";
      case ExprKind::kLoad:
        return e->name + "[" + expr(e->a) + "]";
    }
    IGC_CHECK(false) << "bad expr";
    return "";
  }

  std::string binary(const ExprPtr& e) {
    const std::string a = expr(e->a);
    const std::string b = expr(e->b);
    auto infix = [&](const char* op) {
      return "(" + a + " " + op + " " + b + ")";
    };
    switch (e->op) {
      case BinOp::kAdd: return infix("+");
      case BinOp::kSub: return infix("-");
      case BinOp::kMul: return infix("*");
      case BinOp::kDiv: return infix("/");
      case BinOp::kMod: return infix("%");
      // The ternary forms below are the definitions of std::min/std::max, so
      // the emitted float min/max match the reference operators exactly
      // (including their NaN and signed-zero behavior).
      case BinOp::kMin: return "((" + b + ") < (" + a + ") ? (" + b + ") : (" + a + "))";
      case BinOp::kMax: return "((" + a + ") < (" + b + ") ? (" + b + ") : (" + a + "))";
      case BinOp::kLT: return infix("<");
      case BinOp::kLE: return infix("<=");
      case BinOp::kGT: return infix(">");
      case BinOp::kGE: return infix(">=");
      case BinOp::kEQ: return infix("==");
      case BinOp::kAnd: return infix("&&");
      case BinOp::kOr: return infix("||");
    }
    IGC_CHECK(false) << "bad binop";
    return "";
  }

  const LoweredKernel& k_;
  std::vector<IterVar> block_axes_;
  std::ostringstream os_;
  int indent_ = 0;
};

}  // namespace

std::string emit_cpp(const LoweredKernel& kernel) {
  return CppPrinter(kernel).print();
}

}  // namespace igc::codegen
