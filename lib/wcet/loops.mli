(** Natural-loop detection from back edges, over reachable blocks. The
    compilers only produce reducible flow (mini-C has no goto, per the
    MISRA discussion in the workshop's companion paper); irreducible flow
    is reported as an analysis failure rather than risking an unsound
    bound. *)

exception Irreducible of string

type 'e flow_loop = 'e Flow.loop = {
  l_header : int;
  l_body : int list;  (** blocks in the loop, ascending, incl. the header *)
  l_back_edges : (int * 'e) list;
  l_entry_edges : (int * 'e) list;
}

type loop = Cfg.edge_kind flow_loop

type t = { loops : loop list }
(** Listed in {!Flow.loops} order, which reports print. *)

val compute : Cfg.t -> Dom.t -> t
(** @raise Irreducible on retreating non-back edges. *)
