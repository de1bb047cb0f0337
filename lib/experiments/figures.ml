(* YoungDaly, FirstOrder, NumericalOptimum, DynamicProgramming (u=1). *)
let paper_strategies =
  Spec.
    [
      Young_daly;
      First_order;
      Numerical_optimum;
      Dynamic_programming { quantum = 1.0 };
    ]

(* DP at u in {0.5, 1, 2, 5, 10} plus the paper strategies for
   reference, as in Figures 4, 5 and 12. *)
let quantum_strategies =
  Spec.
    [
      Dynamic_programming { quantum = 0.5 };
      Dynamic_programming { quantum = 1.0 };
      Dynamic_programming { quantum = 2.0 };
      Dynamic_programming { quantum = 5.0 };
      Dynamic_programming { quantum = 10.0 };
      Young_daly;
      First_order;
      Numerical_optimum;
    ]

let all_cs = [ 10.0; 20.0; 40.0; 80.0; 160.0 ]

let base ~id ~description ~lambda ~d ~cs ?(t_max = 2000.0) ?(t_step = 50.0)
    ?(strategies = paper_strategies) ?(failure_dist = Spec.Exp)
    ?(ckpt_noise = Spec.Deterministic) ?platform ?predictor () =
  {
    Spec.id;
    description;
    lambda;
    d;
    cs;
    t_max;
    t_step;
    strategies;
    n_traces = 1000;
    seed = 0x5EED_2024L;
    failure_dist;
    ckpt_noise;
    platform;
    predictor;
  }

let all =
  [
    base ~id:"fig2" ~description:"proportion of work, λ=0.001, D=0, all C"
      ~lambda:0.001 ~d:0.0 ~cs:all_cs ();
    base ~id:"fig3"
      ~description:"extreme case: λ=0.01, D=0, C ∈ {80, 160}" ~lambda:0.01
      ~d:0.0 ~cs:[ 80.0; 160.0 ] ();
    base ~id:"fig4"
      ~description:"impact of the DP quantum, λ=0.001, D=0, C=20"
      ~lambda:0.001 ~d:0.0 ~cs:[ 20.0 ] ~strategies:quantum_strategies ();
    base ~id:"fig5"
      ~description:"quantum impact, short reservations (fig4, T <= 100)"
      ~lambda:0.001 ~d:0.0 ~cs:[ 20.0 ] ~strategies:quantum_strategies
      ~t_max:100.0 ~t_step:5.0 ();
    base ~id:"fig6" ~description:"proportion of work, λ=0.01, D=0, all C"
      ~lambda:0.01 ~d:0.0 ~cs:all_cs ();
    base ~id:"fig7"
      ~description:"proportion of work, λ=0.001, D=0, all C (= fig2)"
      ~lambda:0.001 ~d:0.0 ~cs:all_cs ();
    base ~id:"fig8" ~description:"proportion of work, λ=0.0001, D=0, all C"
      ~lambda:0.0001 ~d:0.0 ~cs:all_cs ();
    base ~id:"fig9" ~description:"proportion of work, λ=0.01, D=5, all C"
      ~lambda:0.01 ~d:5.0 ~cs:all_cs ();
    base ~id:"fig10" ~description:"proportion of work, λ=0.001, D=5, all C"
      ~lambda:0.001 ~d:5.0 ~cs:all_cs ();
    base ~id:"fig11" ~description:"proportion of work, λ=0.0001, D=5, all C"
      ~lambda:0.0001 ~d:5.0 ~cs:all_cs ();
    base ~id:"fig12"
      ~description:"quantum impact across C, λ=0.0001, D=0"
      ~lambda:0.0001 ~d:0.0 ~cs:all_cs ~strategies:quantum_strategies ();
    (* Extensions: the paper's future-work directions, as robustness
       studies (policies still assume exponential failures). *)
    base ~id:"ext-weibull"
      ~description:
        "robustness: Weibull(k=0.7) failures with the exponential-model \
         policies, λ-equivalent MTBF 1000, D=0"
      ~lambda:0.001 ~d:0.0 ~cs:[ 20.0; 80.0 ]
      ~failure_dist:(Spec.Weibull_shape 0.7) ();
    base ~id:"ext-lognormal"
      ~description:
        "robustness: LogNormal(σ=1.2) failures, MTBF 1000, D=0"
      ~lambda:0.001 ~d:0.0 ~cs:[ 20.0; 80.0 ]
      ~failure_dist:(Spec.Lognormal_sigma 1.2) ();
    base ~id:"ext-renewal"
      ~description:
        "extension: renewal-aware DP vs exponential-derived strategies on \
         Weibull(k=0.7) failures, MTBF 1000, C=20, D=0"
      ~lambda:0.001 ~d:0.0 ~cs:[ 20.0 ] ~t_max:600.0
      ~failure_dist:(Spec.Weibull_shape 0.7)
      ~strategies:
        (paper_strategies @ Spec.[ Renewal_dp { quantum = 1.0 } ])
      ();
    base ~id:"ext-ablation"
      ~description:
        "ablation: fixed-work-optimal periods, single-final checkpoint, \
         continuous-offset and k-free optima against the paper strategies \
         (λ=0.001, D=0, C=20)"
      ~lambda:0.001 ~d:0.0 ~cs:[ 20.0 ] ~t_max:1200.0
      ~strategies:
        (paper_strategies
        @ Spec.
            [
              Single_final; Daly_second_order; Lambert_period;
              Variable_segments; Optimal_unrestricted { quantum = 1.0 };
            ])
      ();
    base ~id:"ext-stochastic-ckpt"
      ~description:
        "robustness: checkpoint duration Erlang(4) with mean C, λ=0.001, \
         D=0"
      ~lambda:0.001 ~d:0.0 ~cs:[ 20.0; 80.0 ] ~ckpt_noise:(Spec.Erlang 4) ();
    base ~id:"ext-replan"
      ~description:
        "malleability: 16-node platform, each failure fatal to its node \
         with probability 0.25, 2 spares rejoining after one downtime — \
         static-λ strategies vs online re-planning (λ=0.001, D=5, C=20)"
      ~lambda:0.001 ~d:5.0 ~cs:[ 20.0 ] ~t_max:1200.0
      ~strategies:
        Spec.
          [
            Young_daly;
            Adaptive Young_daly;
            Dynamic_programming { quantum = 1.0 };
            Adaptive (Dynamic_programming { quantum = 1.0 });
          ]
      ~platform:
        {
          Fault.Trace.nodes = 16;
          spares = 2;
          loss_prob = 0.25;
          rejoin_delay = 5.0;
        }
      ();
    base ~id:"ext-predict"
      ~description:
        "prediction: perfect predictor (p=1, r=1) with window w=30 >= C — \
         corrected-period YoungDaly and window-trusting DP with proactive \
         checkpoints vs the unpredicted strategies (λ=0.001, D=5, C=20)"
      ~lambda:0.001 ~d:5.0 ~cs:[ 20.0 ] ~t_max:1200.0
      ~strategies:
        Spec.
          [
            Young_daly;
            Predicted_young_daly { p = 1.0; r = 1.0 };
            Dynamic_programming { quantum = 1.0 };
            Proactive_window { w = 30.0 };
          ]
      ~predictor:{ Fault.Predictor.p = 1.0; r = 1.0; w = 30.0 }
      ();
  ]

let find id = List.find_opt (fun s -> s.Spec.id = id) all
let ids = List.map (fun s -> s.Spec.id) all

let scale ?n_traces ?t_step ?t_max spec =
  let spec =
    match n_traces with
    | None -> spec
    | Some n ->
        if n < 1 then invalid_arg "Figures.scale: n_traces < 1";
        { spec with Spec.n_traces = n }
  in
  let spec =
    match t_step with
    | None -> spec
    | Some s ->
        if not (Float.is_finite s && s > 0.0) then
          invalid_arg "Figures.scale: t_step must be finite and > 0";
        { spec with Spec.t_step = s }
  in
  match t_max with
  | None -> spec
  | Some m ->
      if not (Float.is_finite m && m > 0.0) then
        invalid_arg "Figures.scale: t_max must be finite and > 0";
      { spec with Spec.t_max = m }
