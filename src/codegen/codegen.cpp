#include "codegen/codegen.h"

#include <cmath>
#include <sstream>

#include "codegen/float_literal.h"
#include "core/error.h"

namespace igc::codegen {
namespace {

using ir::BinOp;
using ir::Expr;
using ir::ExprKind;
using ir::ExprPtr;
using ir::IterKind;
using ir::LoweredKernel;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtPtr;

/// Differences between the two C dialects we emit.
struct Dialect {
  bool cuda = false;
  bool intel_subgroups = false;

  std::string global_qualifier() const { return cuda ? "" : "__global "; }
  std::string kernel_qualifier() const {
    return cuda ? "extern \"C\" __global__ void" : "__kernel void";
  }
  std::string barrier() const {
    return cuda ? "__syncthreads();" : "barrier(CLK_LOCAL_MEM_FENCE);";
  }
  std::string axis_expr(IterKind k) const {
    auto idx = [&](int d, bool block) -> std::string {
      static const char* xyz = "xyz";
      if (cuda) {
        return std::string(block ? "blockIdx." : "threadIdx.") + xyz[d];
      }
      return std::string(block ? "get_group_id(" : "get_local_id(") +
             std::to_string(d) + ")";
    };
    switch (k) {
      case IterKind::kBlockX: return idx(0, true);
      case IterKind::kBlockY: return idx(1, true);
      case IterKind::kBlockZ: return idx(2, true);
      case IterKind::kThreadX: return idx(0, false);
      case IterKind::kThreadY: return idx(1, false);
      case IterKind::kThreadZ: return idx(2, false);
      default: IGC_CHECK(false) << "not a bound axis"; return "";
    }
  }
  std::string unroll_pragma() const {
    return cuda ? "#pragma unroll" : "__attribute__((opencl_unroll_hint))";
  }
  std::string type_name(DType t) const {
    return std::string(cuda ? dtype_cuda_name(t) : dtype_opencl_name(t));
  }
  /// OpenCL C is C99, whose keyword is `restrict`; CUDA is C++, which has
  /// none, and nvcc spells the qualifier `__restrict__`.
  std::string restrict_qualifier() const {
    return cuda ? "__restrict__" : "restrict";
  }
  /// Per-thread arrays live in registers / local memory on CUDA and in the
  /// private address space on OpenCL.
  std::string private_qualifier() const { return cuda ? "" : "__private "; }
  /// Float literals for the values a decimal literal cannot spell: OpenCL C
  /// predefines INFINITY and NAN; CUDA reinterprets the IEEE bit pattern.
  std::string nonfinite_literal(double v) const {
    if (std::isnan(v)) return cuda ? "__int_as_float(0x7fffffff)" : "NAN";
    if (v > 0) return cuda ? "__int_as_float(0x7f800000)" : "INFINITY";
    return cuda ? "__int_as_float(0xff800000)" : "(-INFINITY)";
  }
};

class Printer {
 public:
  Printer(const LoweredKernel& k, Dialect d) : k_(k), d_(d) {}

  std::string print() {
    if (!d_.cuda && d_.intel_subgroups) {
      os_ << "#pragma OPENCL EXTENSION cl_intel_subgroups : enable\n";
    }
    os_ << "// generated by igc from the unified IR\n";
    os_ << d_.kernel_qualifier() << " " << k_.name << "(";
    for (size_t i = 0; i < k_.params.size(); ++i) {
      const auto& p = k_.params[i];
      if (i) os_ << ", ";
      os_ << d_.global_qualifier();
      if (!p.is_output) os_ << "const ";
      os_ << d_.type_name(p.dtype) << "* " << d_.restrict_qualifier() << " "
          << p.name;
    }
    os_ << ") {\n";
    indent_ = 1;
    print_seq(k_.body);
    os_ << "}\n";
    return os_.str();
  }

 private:
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
        if (ir::is_bound(s->iv.kind)) {
          line("const int " + s->iv.name + " = (int)" + d_.axis_expr(s->iv.kind) +
               ";");
          print_seq(s->body);
          return;
        }
        if (s->iv.kind == IterKind::kUnrolled) line(d_.unroll_pragma());
        if (s->iv.kind == IterKind::kVectorized) {
          line("// vectorize: compiler maps this loop onto SIMD lanes");
          if (!d_.cuda) line("__attribute__((opencl_unroll_hint))");
        }
        line("for (int " + s->iv.name + " = 0; " + s->iv.name + " < " +
             std::to_string(s->iv.extent) + "; ++" + s->iv.name + ") {");
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
        line(d_.type_name(s->dtype) + " " + s->buffer + " = " + expr(s->value) +
             ";");
        return;
      case StmtKind::kDeclArray:
        line(d_.private_qualifier() + d_.type_name(s->dtype) + " " + s->buffer +
             "[" + std::to_string(s->extent) + "];");
        return;
      case StmtKind::kAssign:
        line(s->buffer + " = " + expr(s->value) + ";");
        return;
      case StmtKind::kBarrier:
        line(d_.barrier());
        return;
      case StmtKind::kComment:
        line("// " + s->text);
        return;
    }
  }

  std::string expr(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kIntImm:
        return std::to_string(e->int_val);
      case ExprKind::kFloatImm:
        return std::isfinite(e->float_val)
                   ? finite_float_literal(e->float_val)
                   : d_.nonfinite_literal(e->float_val);
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
      case BinOp::kMin:
        return (e->dtype == DType::kFloat32 ? "fminf(" : "min(") + a + ", " + b + ")";
      case BinOp::kMax:
        return (e->dtype == DType::kFloat32 ? "fmaxf(" : "max(") + a + ", " + b + ")";
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
  Dialect d_;
  std::ostringstream os_;
  int indent_ = 0;
};

}  // namespace

std::string emit_opencl(const LoweredKernel& kernel, bool use_intel_subgroups) {
  Dialect d;
  d.cuda = false;
  d.intel_subgroups = use_intel_subgroups;
  return Printer(kernel, d).print();
}

std::string emit_cuda(const LoweredKernel& kernel) {
  Dialect d;
  d.cuda = true;
  return Printer(kernel, d).print();
}

std::string emit_for_device(const LoweredKernel& kernel,
                            const sim::DeviceSpec& dev) {
  switch (dev.api) {
    case sim::DeviceApi::kCuda:
      return emit_cuda(kernel);
    case sim::DeviceApi::kOpenCL:
      return emit_opencl(kernel, dev.has_subgroups);
    case sim::DeviceApi::kCpu:
      return emit_opencl(kernel, false);  // CPU fallback uses plain OpenCL C
  }
  IGC_CHECK(false) << "bad api";
  return "";
}

}  // namespace igc::codegen
