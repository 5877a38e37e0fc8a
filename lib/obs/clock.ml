external now_ns : unit -> float = "suu_obs_clock_now_ns"

let now_ms () = now_ns () /. 1e6
