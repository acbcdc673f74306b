#!/bin/sh
# Fails when a native object in the given archives calls one of the
# runtime's polymorphic comparisons.  On the per-job and per-decision
# paths each such call is a C call where a typed compare is one
# instruction, and it allocates nothing, so no allocation test sees it:
# give the operands a type ([(x : float)], [Int.equal], [List.equal]).
#
# With --signbit it also refuses caml_signbit, the out-of-line call
# behind Float.min/Float.max's -0.0 test: where the operands cannot be
# -0.0 or NaN, a typed compare ([if x > y then x else y]) gives the
# same bits.
#
# Usage: poly_compare_guard.sh [--signbit] ARCHIVE.a ...
# Prints each offending module with the comparisons it calls; exit 1
# when there is one, 0 otherwise.
set -e
calls='lessthan|lessequal|greaterthan|greaterequal|equal|notequal|compare'
if [ "$1" = "--signbit" ]; then
  calls="$calls|signbit"
  shift
fi
undefined=$(nm -u "$@")
offenders=$(printf '%s\n' "$undefined" | awk -v pattern="^caml_($calls)\$" '
  /\.o:$/ {
    m = substr($0, 1, length($0) - 3)
    gsub(/__/, ".", m)
    module = toupper(substr(m, 1, 1)) substr(m, 2)
    next
  }
  $1 == "U" && $2 ~ pattern {
    calls[module] = calls[module] " " $2
  }
  END { for (m in calls) print "  " m ":" calls[m] }' | sort)
if [ -n "$offenders" ]; then
  echo "poly-compare guard: FAIL, out-of-line comparisons in"
  printf '%s\n' "$offenders"
  exit 1
fi
echo "poly-compare guard: OK, no polymorphic comparison in $# archives"
