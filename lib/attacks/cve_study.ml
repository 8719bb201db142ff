type primitive = Unauthorized_data_access | Control_flow_hijack

type insufficiency = Not_applicable | Hardware | Software | Misuse

type row = {
  index : int;
  primitive : primitive;
  insufficiency : insufficiency;
  references : string list;
  description : string;
  origin : string;
}

let rows =
  [
    {
      index = 1;
      primitive = Unauthorized_data_access;
      insufficiency = Not_applicable;
      references = [ "CVE-2022-27223" ];
      description = "Array index is not validated";
      origin = "Xilinx USB driver";
    };
    {
      index = 2;
      primitive = Unauthorized_data_access;
      insufficiency = Misuse;
      references = [ "CVE-2019-15902" ];
      description = "Reintroduced Spectre vulnerabilities in backporting";
      origin = "ptrace";
    };
    {
      index = 3;
      primitive = Unauthorized_data_access;
      insufficiency = Not_applicable;
      references =
        [
          "CVE-2021-31829"; "CVE-2019-7308"; "CVE-2020-27170"; "CVE-2020-27171";
          "CVE-2021-29155";
        ];
      description = "Out-of-bounds speculation on pointer arithmetic";
      origin = "eBPF verifier";
    };
    {
      index = 4;
      primitive = Unauthorized_data_access;
      insufficiency = Not_applicable;
      references = [ "CVE-2021-33624"; "Kirzner & Morrison, USENIX Sec'21" ];
      description = "Speculative type confusion";
      origin = "eBPF verifier";
    };
    {
      index = 5;
      primitive = Control_flow_hijack;
      insufficiency = Hardware;
      references = [ "CVE-2022-0001"; "CVE-2022-0002"; "CVE-2022-23960"; "BHI (USENIX Sec'22)" ];
      description = "Branch history injection";
      origin = "Indirect calls and jumps";
    };
    {
      index = 6;
      primitive = Control_flow_hijack;
      insufficiency = Software;
      references = [ "CVE-2021-26401" ];
      description = "LFENCE/JMP is insufficient on AMD";
      origin = "Indirect calls and jumps";
    };
    {
      index = 7;
      primitive = Control_flow_hijack;
      insufficiency = Software;
      references = [ "CVE-2022-29900"; "CVE-2022-29901"; "Retbleed (USENIX Sec'22)" ];
      description = "Retbleed";
      origin = "Retpoline";
    };
    {
      index = 8;
      primitive = Control_flow_hijack;
      insufficiency = Misuse;
      references = [ "CVE-2022-2196" ];
      description = "Missing retpolines or IBPB";
      origin = "KVM";
    };
    {
      index = 9;
      primitive = Control_flow_hijack;
      insufficiency = Misuse;
      references = [ "CVE-2019-18660"; "CVE-2020-10767"; "CVE-2022-23824"; "CVE-2023-1998" ];
      description = "Improper use of hardware mitigations";
      origin = "Indirect calls and jumps";
    };
  ]

let primitive_name = function
  | Unauthorized_data_access -> "Unauthorized speculative data access (Spectre v1)"
  | Control_flow_hijack -> "Speculative control-flow hijacking (v2/RSB/...)"

let insufficiency_name = function
  | Not_applicable -> "n/a"
  | Hardware -> "Hardware"
  | Software -> "Software"
  | Misuse -> "Misuse"
