let () =
  Alcotest.run "vericomp"
    [ ("minic", Test_minic.suite); ("target", Test_target.suite); ("vcomp", Test_vcomp.suite); ("cotsc", Test_cotsc.suite); ("scade", Test_scade.suite); ("wcet", Test_wcet.suite); ("ipet", Test_ipet.suite); ("memo", Test_memo.suite); ("store", Test_store.suite); ("fcstack", Test_fcstack.suite); ("par", Test_par.suite); ("chaos", Test_chaos.suite); ("smt", Test_smt.suite); ("service", Test_service.suite); ("retry", Test_retry.suite) ]
