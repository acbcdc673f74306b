module Probe = struct
  type t = {
    mutable nodes : int;
    mutable leaves : int;
    mutable iterations : int;
    mutable budget : int;
    mutable exhausted : bool;
    mutable improvements : int;
    mutable winner_iteration : int;
    mutable winner_depth : int;
  }

  let reset t =
    t.nodes <- 0;
    t.leaves <- 0;
    t.iterations <- 0;
    t.budget <- 0;
    t.exhausted <- false;
    t.improvements <- 0;
    t.winner_iteration <- 0;
    t.winner_depth <- -1

  let create () =
    {
      nodes = 0;
      leaves = 0;
      iterations = 0;
      budget = 0;
      exhausted = false;
      improvements = 0;
      winner_iteration = 0;
      winner_depth = -1;
    }
end
