let policy inst =
  let n = Suu_core.Instance.n inst and m = Suu_core.Instance.m inst in
  (* One MSM-ALG step per decision: the greedy pair scan over the
     sort-once pair arrays, so each decision equals Msm.assign on the
     eligible set. Exporting it structurally lets the engine vectorize
     it across trial lanes. *)
  let probs, machines, jobs = Suu_core.Instance.sorted_pairs inst in
  Suu_core.Policy.of_greedy_pairs "suu-i-alg" ~n ~m ~probs ~machines ~jobs
