(* Dominators of a reconstructed CFG: the shared [Flow] toolkit over the
   blocks' labelled successor lists, built once per function. *)

type t = Cfg.edge_kind Flow.t

let compute (cfg : Cfg.t) : t = Flow.dominators (Cfg.graph cfg)

let dominates : t -> int -> int -> bool = Flow.dominates
