(** Dominators and natural loops over an int-indexed control-flow graph,
    shared by the compiler (LICM over RTL) and the WCET analyzer
    (machine-code CFGs). Only nodes reachable from the entry take part:
    an unreachable node dominates nothing, is dominated by nothing and
    lies in no loop. *)

module Intmap = Intmap
(** Int-keyed Patricia maps, the one map of the dataflow states. *)

type 'e graph = {
  entry : int;
  succs : (int * 'e) list array;
      (** per node [0 .. n-1], its successors with their edge labels *)
}

val reverse_postorder : 'e graph -> int list
(** Reachable nodes; the depth-first walk visits successors in list
    order. *)

type 'e t
(** Dominator tree of a graph (Cooper–Harvey–Kennedy), with the graph,
    its reverse-postorder ranks and reachable predecessors. *)

val dominators : 'e graph -> 'e t

val dominates : 'e t -> int -> int -> bool
(** [dominates d a b]: is [b] reachable, and does every path from the
    entry to [b] pass through [a]? *)

exception Irreducible of int * int
(** [(src, dst)]: an edge retreating in reverse postorder whose target
    does not dominate its source. *)

type 'e loop = {
  l_header : int;
  l_body : int list;  (** ascending, header included *)
  l_back_edges : (int * 'e) list;
      (** [(src, label)] of the edges from the body into the header *)
  l_entry_edges : (int * 'e) list;
      (** [(src, label)] of the edges from outside into the header *)
}

val loops : 'e t -> 'e loop list
(** One natural loop per back-edge target. The order of the list and of
    its edge lists depends only on the node numbering and the order of
    each successor list. Dominance is tested only on edges that retreat
    in reverse postorder, the only ones that can be back edges, so code
    without loops costs one pass over the edges.
    @raise Irreducible when a cycle has more than one entry; the
    payload is the first such edge in ascending source order. *)
