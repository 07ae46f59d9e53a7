// The benchmark is a module of its own so that its build file lives in the
// benchmark's directory. The import path sits under ibvsim/, which is what
// lets it import ibvsim/internal/...; the replace points at the checkout it
// runs in, so the same benchmark sources measure whichever commit they are
// dropped into.
module ibvsim/bench

go 1.22

require ibvsim v0.0.0

replace ibvsim => ../
