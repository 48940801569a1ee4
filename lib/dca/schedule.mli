(** Iteration permutation schedules (paper §IV-B2).

    Exhaustive permutation testing is exponential, so DCA ships reduced
    presets: the identity (golden reference), the reverse order, a rotation
    by half, and a configurable number of seeded random shuffles.  Every
    schedule is a bijection on [0 .. n-1]; the property tests check this. *)

type t =
  | Identity
  | Reverse
  | Rotate  (** rotate by ⌈n/2⌉ *)
  | Shuffle of int  (** Fisher–Yates with this seed *)

val apply : t -> int -> int array
(** [apply t n] is the permutation of [0 .. n-1] this schedule induces. *)

val default_shuffles : int
(** 3: the seeded shuffles {!presets} adds unless told otherwise. *)

val presets : ?shuffles:int -> ?seed:int -> unit -> t list
(** The testing set (identity excluded): reverse, rotate, then [shuffles]
    seeded shuffles (default {!default_shuffles}, seed 2021). *)

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string} (used by the fuzzer to recover the witness
    schedule named in a non-commutative verdict message). *)

val sift : t list -> int -> (t * int array) list * int
(** [sift schedules n] drops, for trip count [n], every schedule whose
    induced permutation is the identity or duplicates the permutation of
    an earlier schedule in the list; the survivors come back paired with
    their permutation, in input order, together with the dropped count.
    Sifting never drops a {e distinct} permutation — the property tests
    check that the kept permutation set equals the distinct non-identity
    permutation set of the input. *)
