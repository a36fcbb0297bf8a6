(** Order statistics over one run's samples. *)

val quantile : float -> float list -> float
(** [quantile q xs] interpolates linearly between the closest ranks of
    the sorted samples (Hyndman–Fan type 7): [q = 0] is the minimum,
    [q = 1] the maximum.  Raises [Invalid_argument] on an empty list. *)

val median : float list -> float
val p90 : float list -> float

val iqr : float list -> float
(** Distance between the first and third quartiles. *)

val sum : float list -> float

val ratio : float -> float -> float
(** [ratio num den] is [num /. den], or 0 when [den] is 0. *)
