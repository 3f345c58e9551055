(** Convert a detector error model into a weighted matching graph for the
    union-find decoder.

    Mechanisms flipping two detectors become edges, one detector becomes a
    boundary edge, and the rare >2-detector mechanisms (certain hook-error
    configurations) are decomposed into chained pairs.  Parallel mechanisms
    merge by probability combination, keeping the likelier mechanism's
    logical flag.  Edge weights are quantized log-likelihoods
    round(scale * ln((1-p)/p)). *)

val edges :
  ?scale:float -> ?max_weight:int -> Dem.mechanism list ->
  (int * int * int * bool) list
(** The merged edge list [(u, v, weight, flips_logical)], [v] possibly
    {!Decoder_uf.boundary}, in the order both decoders are built from
    (it fixes union-find tie-breaks and {!Dem_store} round trips).
    Defaults: scale = 2.0, max_weight = 40. *)

val build :
  ?scale:float -> ?max_weight:int -> nodes:int -> Dem.mechanism list ->
  Decoder_uf.graph
(** {!Decoder_uf.weighted_graph} over {!edges}. *)

val non_graphlike_count : Dem.mechanism list -> int
(** Number of mechanisms with more than two detectors (diagnostic). *)
